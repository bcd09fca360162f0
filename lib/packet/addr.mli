(** Link-layer and network-layer addresses. *)

module Mac : sig
  type t
  (** A 48-bit Ethernet address. *)

  val of_string : string -> t
  (** From 6 raw bytes.  Raises [Invalid_argument] otherwise. *)

  val to_string : t -> string
  (** The 6 raw bytes. *)

  val of_repr : string -> t
  (** Parse ["aa:bb:cc:dd:ee:ff"]. *)

  val broadcast : t

  val zero : t

  val is_broadcast : t -> bool

  val equal : t -> t -> bool

  val pp : Format.formatter -> t -> unit
end

module Ip : sig
  type t
  (** An IPv4 address. *)

  val of_int : int -> t
  (** From the host-order 32-bit value. *)

  val to_int : t -> int

  val of_repr : string -> t
  (** Parse dotted-quad ["10.0.0.1"]. *)

  val equal : t -> t -> bool

  val to_repr : t -> string
end
