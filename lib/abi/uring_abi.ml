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

(* Field offsets within a 64-byte SQE slot and a 16-byte CQE slot. *)
let sqe_opcode_off = 0

let sqe_fd_off = 4

let sqe_file_off_off = 8

let sqe_addr_off = 16

let sqe_len_off = 24

let sqe_poll_events_off = 28

let sqe_user_data_off = 32

let sqe_buf_index_off = 40

let sqe_fixed_off = 44

let cqe_user_data_off = 0

let cqe_res_off = 8

let cqe_flags_off = 12

(* A 64-bit field as a native int, without boxing an [int64]: the low
   63 bits, exactly what [Int64.to_int] keeps. *)
let get_int r off =
  Mem.Region.get_u32 r off lor (Mem.Region.get_u32 r (off + 4) lsl 32)

(* A native int into a 64-bit field, sign-extended like [Int64.of_int]. *)
let set_int r off v =
  Mem.Region.set_u32 r off v;
  Mem.Region.set_u32 r (off + 4) (v asr 32)

let set_sqe r off ~opcode ~fd ~file_off ~addr ~len ~poll_events ~user_data
    ~buf_index ~fixed =
  Mem.Region.set_u8 r (off + sqe_opcode_off) (opcode_to_int opcode);
  Mem.Region.set_u32 r (off + sqe_fd_off) fd;
  set_int r (off + sqe_file_off_off) file_off;
  set_int r (off + sqe_addr_off) addr;
  Mem.Region.set_u32 r (off + sqe_len_off) len;
  Mem.Region.set_u32 r (off + sqe_poll_events_off) poll_events;
  set_int r (off + sqe_user_data_off) user_data;
  Mem.Region.set_u32 r (off + sqe_buf_index_off) buf_index;
  Mem.Region.set_u8 r (off + sqe_fixed_off) (if fixed then 1 else 0)

let sqe_opcode r off = opcode_of_int (Mem.Region.get_u8 r (off + sqe_opcode_off))

let sqe_fd r off = Mem.Region.get_u32 r (off + sqe_fd_off)

let sqe_file_off r off = get_int r (off + sqe_file_off_off)

let sqe_addr r off = get_int r (off + sqe_addr_off)

let sqe_len r off = Mem.Region.get_u32 r (off + sqe_len_off)

let sqe_poll_events r off = Mem.Region.get_u32 r (off + sqe_poll_events_off)

let sqe_user_data r off = get_int r (off + sqe_user_data_off)

let sqe_buf_index r off = Mem.Region.get_u32 r (off + sqe_buf_index_off)

let sqe_fixed r off = Mem.Region.get_u8 r (off + sqe_fixed_off) <> 0

let set_cqe r off ~user_data ~res ~flags =
  set_int r (off + cqe_user_data_off) user_data;
  (* Two's-complement encode the signed result in a u32 field. *)
  Mem.Region.set_u32 r (off + cqe_res_off) (res land 0xFFFFFFFF);
  Mem.Region.set_u32 r (off + cqe_flags_off) flags

let cqe_user_data r off = get_int r (off + cqe_user_data_off)

let cqe_res r off =
  let raw = Mem.Region.get_u32 r (off + cqe_res_off) in
  if raw land 0x80000000 <> 0 then raw - 0x100000000 else raw

let cqe_flags r off = Mem.Region.get_u32 r (off + cqe_flags_off)

(* The record codec keeps all 64 bits of its [int64] fields. *)
let write_sqe r off sqe =
  set_sqe r off ~opcode:sqe.opcode ~fd:sqe.fd ~file_off:0 ~addr:sqe.addr
    ~len:sqe.len ~poll_events:sqe.poll_events ~user_data:0
    ~buf_index:sqe.buf_index ~fixed:sqe.fixed;
  Mem.Region.set_u64 r (off + sqe_file_off_off) sqe.file_off;
  Mem.Region.set_u64 r (off + sqe_user_data_off) sqe.user_data

let read_sqe r off =
  match sqe_opcode r off with
  | None ->
      Error
        (Printf.sprintf "bad opcode %d"
           (Mem.Region.get_u8 r (off + sqe_opcode_off)))
  | Some opcode ->
      Ok
        {
          opcode;
          fd = sqe_fd r off;
          file_off = Mem.Region.get_u64 r (off + sqe_file_off_off);
          addr = sqe_addr r off;
          len = sqe_len r off;
          poll_events = sqe_poll_events r off;
          user_data = Mem.Region.get_u64 r (off + sqe_user_data_off);
          buf_index = sqe_buf_index r off;
          fixed = sqe_fixed r off;
        }

let write_cqe r off cqe =
  set_cqe r off ~user_data:0 ~res:cqe.res ~flags:cqe.flags;
  Mem.Region.set_u64 r (off + cqe_user_data_off) cqe.user_data

let read_cqe r off =
  {
    user_data = Mem.Region.get_u64 r (off + cqe_user_data_off);
    res = cqe_res r off;
    flags = cqe_flags r off;
  }

let res_of_errno e = -Errno.to_int e
