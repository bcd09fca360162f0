(** One {!Netstack.Rdp} endpoint pumped over a {!Libos.Api} UDP socket
    (DESIGN.md §16).

    The engine is pure state; this adapter owns the I/O: it transmits
    DATA/ACK/retransmissions, feeds arriving datagrams through the
    engine, queues fresh deliveries, and shapes poll timeouts around
    the retransmit deadlines.  Symmetric — the enclave app and the
    native client each run one over their own API. *)

type t

val create : Libos.Api.t -> t
(** Opens a fresh UDP socket on [api] and a fresh {!Netstack.Rdp}
    endpoint, whose counters {!rdp} exposes. *)

val rdp : t -> Netstack.Rdp.t
(** The engine, for accounting reads ({!Netstack.Rdp.gave_up} …). *)

val bind : t -> Libos.Api.sockaddr -> (unit, Abi.Errno.t) result

val close : t -> unit

val send : t -> Bytes.t -> Libos.Api.sockaddr -> unit
(** Reliable send: transmits now, retransmits from {!recv}/{!flush}
    pumping until acked or the engine gives up (accounted). *)

val recv : ?timeout:int64 -> t -> (Bytes.t * Libos.Api.sockaddr) option
(** Next fresh (deduplicated) payload, pumping retransmissions while
    waiting; [None] once [timeout] (cycles; [None] = forever)
    expires. *)

val flush : ?timeout:int64 -> t -> unit
(** Pump until no DATA is pending — everything acked or counted as a
    give-up.  The end-of-run barrier for clients. *)
