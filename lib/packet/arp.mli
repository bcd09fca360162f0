(** ARP for IPv4 over Ethernet (RFC 826), the subset LWIP retains. *)

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
  | Bad_sizes of int * int  (** hlen, plen *)
  | Bad_op of int

val build : t -> Bytes.t

val parse : Bytes.t -> (t, error) result
