(** Whole-frame helpers: build and dissect a complete Ethernet/IPv4/UDP
    frame in one call.  Both the kernel network path and the in-enclave
    stack use these, so wire formats cannot drift apart. *)

type udp_info = {
  src_mac : Addr.Mac.t;
  dst_mac : Addr.Mac.t;
  src_ip : Addr.Ip.t;
  dst_ip : Addr.Ip.t;
  src_port : int;
  dst_port : int;
}

val build_udp : udp_info -> Bytes.t -> Bytes.t
(** [build_udp info payload] is a full layer-2 frame, built in one
    buffer: headers written in place, the payload copied once. *)

type dissect_error =
  | Eth of Eth.error
  | Not_ipv4
  | Ip of Ipv4.error
  | Not_udp
  | Udp_err of Udp.error

val validate_udp : Bytes.t -> (int, dissect_error) result
(** Validate a full frame down to UDP in place, every layer through its
    one validation routine.  [Ok n]: the [n]-byte UDP payload starts at
    [frame_overhead]. *)

val udp_info : Bytes.t -> udp_info
(** The addressing of a frame {!validate_udp} accepted, read in place. *)

val dissect_udp : Bytes.t -> (udp_info * Bytes.t, dissect_error) result
(** {!validate_udp}, then {!udp_info} and a copy of the UDP payload. *)

val build_arp : src_mac:Addr.Mac.t -> dst_mac:Addr.Mac.t -> Arp.t -> Bytes.t

val frame_overhead : int
(** Bytes of Ethernet+IPv4+UDP headers per datagram (42). *)

val pp_dissect_error : Format.formatter -> dissect_error -> unit

val udp_dst_port : Bytes.t -> int
(** The UDP destination port of a frame, read in place without
    validation (the XDP program's test); -1 for a frame that is not
    IPv4/UDP or too short to carry both ports. *)

val rss_queue : queues:int -> Bytes.t -> int
(** The {!Rss.queue} of a UDP frame's 4-tuple, read in place without
    validation (hardware RSS); -1 where {!udp_dst_port} is -1. *)
