type op = Request | Reply

type t = {
  op : op;
  sender_mac : Addr.Mac.t;
  sender_ip : Addr.Ip.t;
  target_mac : Addr.Mac.t;
  target_ip : Addr.Ip.t;
}

type error =
  | Truncated of int
  | Bad_hardware_type of int
  | Bad_protocol_type of int
  | Bad_sizes of int * int
  | Bad_op of int

let packet_size = 28

let op_to_int = function Request -> 1 | Reply -> 2

let set_ip b off ip =
  Bytes.set_int32_be b off (Int32.of_int (Addr.Ip.to_int ip))

let get_ip b off =
  Addr.Ip.of_int (Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF)

let build t =
  let b = Bytes.create packet_size in
  Bytes.set_uint16_be b 0 1 (* ethernet *);
  Bytes.set_uint16_be b 2 0x0800 (* ipv4 *);
  Bytes.set_uint8 b 4 6;
  Bytes.set_uint8 b 5 4;
  Bytes.set_uint16_be b 6 (op_to_int t.op);
  Bytes.blit_string (Addr.Mac.to_string t.sender_mac) 0 b 8 6;
  set_ip b 14 t.sender_ip;
  Bytes.blit_string (Addr.Mac.to_string t.target_mac) 0 b 18 6;
  set_ip b 24 t.target_ip;
  b

let parse b =
  let len = Bytes.length b in
  if len < packet_size then Error (Truncated len)
  else
    let htype = Bytes.get_uint16_be b 0 in
    let ptype = Bytes.get_uint16_be b 2 in
    let hlen = Bytes.get_uint8 b 4 in
    let plen = Bytes.get_uint8 b 5 in
    let op = Bytes.get_uint16_be b 6 in
    if htype <> 1 then Error (Bad_hardware_type htype)
    else if ptype <> 0x0800 then Error (Bad_protocol_type ptype)
    else if hlen <> 6 || plen <> 4 then Error (Bad_sizes (hlen, plen))
    else
      match op with
      | 1 | 2 ->
          Ok
            {
              op = (if op = 1 then Request else Reply);
              sender_mac = Addr.Mac.of_string (Bytes.sub_string b 8 6);
              sender_ip = get_ip b 14;
              target_mac = Addr.Mac.of_string (Bytes.sub_string b 18 6);
              target_ip = get_ip b 24;
            }
      | v -> Error (Bad_op v)
