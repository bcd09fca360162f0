type opcode =
  | Nop
  | Read
  | Write
  | Send
  | Recv
  | Poll_add
  | Send_zc
  | Sendmsg_zc
  | Recv_multi

type sqe = {
  opcode : opcode;
  fd : int;
  file_off : int64;
  addr : int;
  len : int;
  poll_events : int;
  user_data : int64;
  buf_index : int;
  fixed : bool;
}

type cqe = { user_data : int64; res : int; flags : int }

let sqe_size = 64

let cqe_size = 16

let pollin = 0x001

let pollout = 0x004

let mask_of_events evs =
  List.fold_left
    (fun acc ev -> acc lor match ev with `In -> pollin | `Out -> pollout)
    0 evs

let events_of_mask mask =
  (if mask land pollin <> 0 then [ `In ] else [])
  @ if mask land pollout <> 0 then [ `Out ] else []

(* CQE flag bits, mirroring IORING_CQE_F_*.  [cqe_f_more] marks a CQE
   that is not the last one for its SQE (zero-copy completion before the
   notif; every multishot hit except the terminating one).  [cqe_f_notif]
   marks the deferred zero-copy notification: only once it arrives may
   the submitter reuse the buffer.  [cqe_f_buffer] says the upper 16 bits
   of [flags] carry the id of the provided buffer the kernel picked. *)
let cqe_f_buffer = 1

let cqe_f_more = 2

let cqe_f_notif = 8

let cqe_buffer_shift = 16

let cqe_buffer_id flags = flags lsr cqe_buffer_shift

let opcode_to_int = function
  | Nop -> 0
  | Read -> 1
  | Write -> 2
  | Send -> 3
  | Recv -> 4
  | Poll_add -> 5
  | Send_zc -> 6
  | Sendmsg_zc -> 7
  | Recv_multi -> 8

let opcode_of_int = function
  | 0 -> Some Nop
  | 1 -> Some Read
  | 2 -> Some Write
  | 3 -> Some Send
  | 4 -> Some Recv
  | 5 -> Some Poll_add
  | 6 -> Some Send_zc
  | 7 -> Some Sendmsg_zc
  | 8 -> Some Recv_multi
  | _ -> None

let write_sqe r off sqe =
  Mem.Region.set_u8 r off (opcode_to_int sqe.opcode);
  Mem.Region.set_u32 r (off + 4) sqe.fd;
  Mem.Region.set_u64 r (off + 8) sqe.file_off;
  Mem.Region.set_u64 r (off + 16) (Int64.of_int sqe.addr);
  Mem.Region.set_u32 r (off + 24) sqe.len;
  Mem.Region.set_u32 r (off + 28) sqe.poll_events;
  Mem.Region.set_u64 r (off + 32) sqe.user_data;
  Mem.Region.set_u32 r (off + 40) sqe.buf_index;
  Mem.Region.set_u8 r (off + 44) (if sqe.fixed then 1 else 0)

let read_sqe r off =
  match opcode_of_int (Mem.Region.get_u8 r off) with
  | None -> Error (Printf.sprintf "bad opcode %d" (Mem.Region.get_u8 r off))
  | Some opcode ->
      Ok
        {
          opcode;
          fd = Mem.Region.get_u32 r (off + 4);
          file_off = Mem.Region.get_u64 r (off + 8);
          addr = Int64.to_int (Mem.Region.get_u64 r (off + 16));
          len = Mem.Region.get_u32 r (off + 24);
          poll_events = Mem.Region.get_u32 r (off + 28);
          user_data = Mem.Region.get_u64 r (off + 32);
          buf_index = Mem.Region.get_u32 r (off + 40);
          fixed = Mem.Region.get_u8 r (off + 44) <> 0;
        }

let write_cqe r off cqe =
  Mem.Region.set_u64 r off cqe.user_data;
  (* Two's-complement encode the signed result in a u32 field. *)
  Mem.Region.set_u32 r (off + 8) (cqe.res land 0xFFFFFFFF);
  Mem.Region.set_u32 r (off + 12) cqe.flags

let read_cqe r off =
  let raw = Mem.Region.get_u32 r (off + 8) in
  let res = if raw land 0x80000000 <> 0 then raw - 0x100000000 else raw in
  {
    user_data = Mem.Region.get_u64 r off;
    res;
    flags = Mem.Region.get_u32 r (off + 12);
  }

let res_of_errno e = -Errno.to_int e

let pp_opcode ppf op =
  Format.pp_print_string ppf
    (match op with
    | Nop -> "nop"
    | Read -> "read"
    | Write -> "write"
    | Send -> "send"
    | Recv -> "recv"
    | Poll_add -> "poll_add"
    | Send_zc -> "send_zc"
    | Sendmsg_zc -> "sendmsg_zc"
    | Recv_multi -> "recv_multi")
