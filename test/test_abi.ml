(* Tests for errno codes, XSK descriptor packing and the io_uring SQE /
   CQE wire format. *)

let check = Alcotest.(check int)

(* {1 Errno} *)

let test_errno_roundtrip () =
  List.iter
    (fun e ->
      match Abi.Errno.of_int (Abi.Errno.to_int e) with
      | Some e' when e' = e -> ()
      | _ -> Alcotest.failf "roundtrip %s" (Abi.Errno.to_string e))
    [
      Abi.Errno.EPERM; ENOENT; EBADF; EAGAIN; EINVAL; ENOBUFS; ENOTCONN;
      ECONNREFUSED; ECONNRESET; EADDRINUSE; EMSGSIZE; ENOSYS; EFAULT;
    ]

let test_errno_linux_values () =
  check "EPERM" 1 (Abi.Errno.to_int EPERM);
  check "EAGAIN" 11 (Abi.Errno.to_int EAGAIN);
  check "EINVAL" 22 (Abi.Errno.to_int EINVAL);
  check "EFAULT" 14 (Abi.Errno.to_int EFAULT)

let test_errno_unknown () =
  Alcotest.(check bool) "unknown" true (Abi.Errno.of_int 9999 = None)

(* {1 Xsk_desc} *)

let test_xsk_desc_roundtrip () =
  let d = Abi.Xsk_desc.encode ~offset:4096 ~len:1460 in
  Alcotest.(check (pair int int)) "decode" (4096, 1460) (Abi.Xsk_desc.decode d)

let test_xsk_desc_offset_only () =
  let d = Abi.Xsk_desc.encode_offset 8192 in
  check "offset" 8192 (Abi.Xsk_desc.decode_offset d);
  Alcotest.(check (pair int int)) "len zero" (8192, 0) (Abi.Xsk_desc.decode d)

let test_xsk_desc_bounds () =
  (match Abi.Xsk_desc.encode ~offset:(-1) ~len:0 with
  | _ -> Alcotest.fail "negative offset"
  | exception Invalid_argument _ -> ());
  match Abi.Xsk_desc.encode ~offset:0 ~len:0x10000 with
  | _ -> Alcotest.fail "oversize len"
  | exception Invalid_argument _ -> ()

let test_xsk_desc_total_decode () =
  (* Any bit pattern decodes without raising — untrusted input. *)
  let off, len = Abi.Xsk_desc.decode 0xFFFFFFFFFFFFFFFFL in
  Alcotest.(check bool) "fields in range" true
    (off >= 0 && len >= 0 && len <= 0xFFFF)

(* {1 Uring_abi} *)

let region () = Mem.Region.create ~kind:Untrusted ~name:"abi" ~size:256

let sample_sqe =
  {
    Abi.Uring_abi.opcode = Abi.Uring_abi.Read;
    fd = 7;
    file_off = 123456789L;
    addr = 0x4000;
    len = 512;
    poll_events = 0;
    user_data = 0xCAFEL;
    buf_index = 0;
    fixed = false;
  }

let test_sqe_roundtrip () =
  let r = region () in
  Abi.Uring_abi.write_sqe r 64 sample_sqe;
  match Abi.Uring_abi.read_sqe r 64 with
  | Error e -> Alcotest.fail e
  | Ok sqe ->
      check "fd" 7 sqe.fd;
      Alcotest.(check int64) "off" 123456789L sqe.file_off;
      check "addr" 0x4000 sqe.addr;
      check "len" 512 sqe.len;
      Alcotest.(check int64) "user_data" 0xCAFEL sqe.user_data;
      Alcotest.(check bool) "opcode" true (sqe.opcode = Abi.Uring_abi.Read)

let test_sqe_bad_opcode () =
  let r = region () in
  Mem.Region.set_u8 r 0 99;
  match Abi.Uring_abi.read_sqe r 0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage opcode accepted"

let test_cqe_roundtrip_positive () =
  let r = region () in
  Abi.Uring_abi.write_cqe r 0 { Abi.Uring_abi.user_data = 5L; res = 4096; flags = 0 };
  let cqe = Abi.Uring_abi.read_cqe r 0 in
  check "res" 4096 cqe.res;
  Alcotest.(check int64) "user_data" 5L cqe.user_data

let test_cqe_roundtrip_negative () =
  (* Negative results (errnos) must survive the u32 two's-complement
     encoding. *)
  let r = region () in
  Abi.Uring_abi.write_cqe r 16
    { Abi.Uring_abi.user_data = 9L; res = Abi.Uring_abi.res_of_errno EAGAIN; flags = 0 };
  check "negative errno" (-11) (Abi.Uring_abi.read_cqe r 16).res

let test_opcode_codes () =
  List.iter
    (fun op ->
      match Abi.Uring_abi.opcode_of_int (Abi.Uring_abi.opcode_to_int op) with
      | Some op' when op = op' -> ()
      | _ -> Alcotest.fail "opcode roundtrip")
    [ Abi.Uring_abi.Nop; Read; Write; Send; Recv; Poll_add ]

let prop_cqe_res_roundtrip =
  QCheck_alcotest.to_alcotest ~rand:(Flake.rand ())
    (QCheck.Test.make ~name:"cqe: any int32 result roundtrips" ~count:500
       (QCheck.make QCheck.Gen.(-0x80000000 -- 0x7FFFFFFF))
       (fun res ->
         let r = region () in
         Abi.Uring_abi.write_cqe r 0 { Abi.Uring_abi.user_data = 0L; res; flags = 0 };
         (Abi.Uring_abi.read_cqe r 0).res = res))

(* The in-place accessors agree with the [int64] codec both ways, over
   the whole field ranges: 48-bit offsets and 16-bit lengths, edges
   included. *)
let prop_xsk_desc_in_place =
  let max_off = (1 lsl 48) - 1 in
  let gen =
    QCheck.Gen.(
      pair
        (oneof [ oneofl [ 0; 1; max_off; max_off - 1; 1 lsl 32 ]; 0 -- max_off ])
        (oneof [ oneofl [ 0; 1; 0xFFFF ]; 0 -- 0xFFFF ]))
  in
  QCheck_alcotest.to_alcotest ~rand:(Flake.rand ())
    (QCheck.Test.make ~name:"xsk_desc: in-place accessors match encode/decode"
       ~count:1000
       (QCheck.make ~print:QCheck.Print.(pair int int) gen)
       (fun (offset, len) ->
         let r = region () in
         Abi.Xsk_desc.set r 8 ~offset ~len;
         let written = Mem.Region.get_u64 r 8 = Abi.Xsk_desc.encode ~offset ~len in
         Mem.Region.set_u64 r 16 (Abi.Xsk_desc.encode ~offset ~len);
         let read =
           Abi.Xsk_desc.get_offset r 16 = offset
           && Abi.Xsk_desc.get_len r 16 = len
         in
         Abi.Xsk_desc.set_offset r 24 offset;
         let offset_only =
           Mem.Region.get_u64 r 24 = Abi.Xsk_desc.encode_offset offset
         in
         (* Any word reads as its [decode]. *)
         let raw = Int64.logor (Int64.of_int offset) (Int64.shift_left (Int64.of_int len) 47) in
         Mem.Region.set_u64 r 32 raw;
         let total =
           (Abi.Xsk_desc.get_offset r 32, Abi.Xsk_desc.get_len r 32)
           = Abi.Xsk_desc.decode raw
         in
         written && read && offset_only && total))

(* The in-place SQE/CQE accessors agree with the record codec both ways
   for every field, [int64] fields anywhere in the native range. *)
let prop_uring_in_place =
  let opcodes =
    Abi.Uring_abi.[ Nop; Read; Write; Send; Recv; Poll_add; Send_zc; Sendmsg_zc; Recv_multi ]
  in
  let gen =
    QCheck.Gen.(
      let wide = oneof [ oneofl [ 0; 1; -1; max_int; min_int ]; int ] in
      let u32 = oneof [ oneofl [ 0; 0xFFFF_FFFF ]; 0 -- 0xFFFF_FFFF ] in
      let res = -0x8000_0000 -- 0x7FFF_FFFF in
      pair
        (pair (oneofl opcodes) (pair u32 (pair wide (pair wide u32))))
        (pair (pair u32 (pair wide (pair u32 bool))) (pair res u32)))
  in
  QCheck_alcotest.to_alcotest ~rand:(Flake.rand ())
    (QCheck.Test.make ~name:"uring_abi: in-place accessors match the record codec"
       ~count:1000 (QCheck.make gen)
       (fun
         ( (opcode, (fd, (file_off, (addr, len)))),
           ((poll_events, (user_data, (buf_index, fixed))), (res, flags)) )
       ->
         let module U = Abi.Uring_abi in
         let r = region () in
         U.set_sqe r 0 ~opcode ~fd ~file_off ~addr ~len ~poll_events ~user_data
           ~buf_index ~fixed;
         let read_back =
           match U.read_sqe r 0 with
           | Error _ -> false
           | Ok sqe ->
               sqe.opcode = opcode && sqe.fd = fd
               && sqe.file_off = Int64.of_int file_off
               && sqe.addr = addr && sqe.len = len
               && sqe.poll_events = poll_events
               && sqe.user_data = Int64.of_int user_data
               && sqe.buf_index = buf_index && sqe.fixed = fixed
         in
         U.write_sqe r 64
           {
             U.opcode;
             fd;
             file_off = Int64.of_int file_off;
             addr;
             len;
             poll_events;
             user_data = Int64.of_int user_data;
             buf_index;
             fixed;
           };
         let in_place =
           U.sqe_opcode r 64 = Some opcode
           && U.sqe_fd r 64 = fd
           && U.sqe_file_off r 64 = file_off
           && U.sqe_addr r 64 = addr
           && U.sqe_len r 64 = len
           && U.sqe_poll_events r 64 = poll_events
           && U.sqe_user_data r 64 = user_data
           && U.sqe_buf_index r 64 = buf_index
           && U.sqe_fixed r 64 = fixed
         in
         U.set_cqe r 128 ~user_data ~res ~flags;
         let cqe = U.read_cqe r 128 in
         U.write_cqe r 144 cqe;
         let cqe_ok =
           cqe.user_data = Int64.of_int user_data
           && cqe.res = res && cqe.flags = flags
           && U.cqe_user_data r 144 = user_data
           && U.cqe_res r 144 = res
           && U.cqe_flags r 144 = flags
         in
         read_back && in_place && cqe_ok))

let test_xsk_desc_set_bounds () =
  let r = region () in
  let rejects what f =
    match f () with
    | () -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  rejects "negative offset" (fun () -> Abi.Xsk_desc.set r 0 ~offset:(-1) ~len:0);
  rejects "offset 2^48" (fun () -> Abi.Xsk_desc.set r 0 ~offset:(1 lsl 48) ~len:0);
  rejects "negative len" (fun () -> Abi.Xsk_desc.set r 0 ~offset:0 ~len:(-1));
  rejects "len 0x10000" (fun () -> Abi.Xsk_desc.set r 0 ~offset:0 ~len:0x10000);
  rejects "offset-only 2^48" (fun () -> Abi.Xsk_desc.set_offset r 0 (1 lsl 48));
  check "rejected writes leave the slot alone" 0 (Abi.Xsk_desc.get_offset r 0)

let suite =
  [
    ("errno: roundtrip", `Quick, test_errno_roundtrip);
    ("errno: linux values", `Quick, test_errno_linux_values);
    ("errno: unknown", `Quick, test_errno_unknown);
    ("xsk_desc: roundtrip", `Quick, test_xsk_desc_roundtrip);
    ("xsk_desc: offset-only entries", `Quick, test_xsk_desc_offset_only);
    ("xsk_desc: encode bounds", `Quick, test_xsk_desc_bounds);
    ("xsk_desc: total decode", `Quick, test_xsk_desc_total_decode);
    ("sqe: roundtrip", `Quick, test_sqe_roundtrip);
    ("sqe: bad opcode rejected", `Quick, test_sqe_bad_opcode);
    ("cqe: positive result", `Quick, test_cqe_roundtrip_positive);
    ("cqe: negative errno result", `Quick, test_cqe_roundtrip_negative);
    ("opcode: codes roundtrip", `Quick, test_opcode_codes);
    prop_cqe_res_roundtrip;
    prop_xsk_desc_in_place;
    ("xsk_desc: in-place writes reject out-of-range fields", `Quick,
     test_xsk_desc_set_bounds);
    prop_uring_in_place;
  ]
