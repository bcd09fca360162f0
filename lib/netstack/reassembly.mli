(** Bounded IPv4 fragment reassembly (DESIGN.md §16).

    The reassembler sits on the untrusted rx path, so it assumes a
    hostile wire: fragments may be duplicated (the link's benign
    [Wire_dup]), reordered, overlapping (teardrop / fragment-storm),
    oversized, or simply abandoned.  The defense is uniform — small
    fixed quotas ({!Sgx.Params.reassembly_max_datagrams} open
    reassemblies, {!Sgx.Params.reassembly_max_per_source} per source
    IP, {!Sgx.Params.reassembly_max_fragments} slices each), a short
    timeout ({!Sgx.Params.reassembly_timeout}, enforced lazily on the
    insert path — no background fiber, so the structure is safe under
    the fuzzer with a dummy clock), and reject-don't-repair on any
    inconsistency.  Memory is bounded by construction: the full-size
    datagram buffer is allocated exactly once, at completion.

    Exact duplicate fragments are absorbed silently; any partial
    overlap or conflicting final-fragment geometry poisons the whole
    reassembly (a teardrop must never yield a datagram stitched from
    attacker-chosen overlaps). *)

type t

(** Why a fragment was refused. *)
type reject =
  | Frag_bounds  (** Slice past the largest datagram. *)
  | Frag_table_full  (** Open-reassembly quota reached. *)
  | Frag_src_quota  (** Per-source quota reached. *)
  | Frag_too_many  (** Per-datagram slice quota reached. *)
  | Frag_overlap  (** Partial overlap or conflicting final geometry. *)

val reject_name : reject -> string
(** The owning stack's [drop.<reason>] suffix: ["frag-bounds"],
    ["frag-table-full"], ["frag-src-quota"], ["frag-too-many"],
    ["frag-overlap"]. *)

type verdict =
  | Complete of Packet.Ipv4.t
      (** All bytes present: the reassembled datagram, header fields
          from the first-seen fragment, payload allocated fresh. *)
  | Pending  (** Accepted, still missing bytes (or an absorbed dup). *)
  | Rejected of reject  (** Refused; the reassembly, if any, is gone. *)

val create : ?clock:(unit -> int64) -> unit -> t
(** [clock] feeds the timeout sweep (pass the engine's [now]; defaults
    to a frozen clock, i.e. no expiry — what the fuzzer wants). *)

val insert : t -> Packet.Ipv4.fragment -> verdict
(** Fold one validated fragment in.  Never raises on any fragment
    {!Packet.Ipv4.parse_fragment} can produce. *)

val active : t -> int
(** Open (incomplete) reassemblies right now. *)

val expired : t -> int
(** Reassemblies abandoned by the timeout sweep so far — the owning
    stack folds this into its accounted-drop totals. *)
