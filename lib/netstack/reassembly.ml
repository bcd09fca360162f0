(* Bounded IPv4 fragment reassembly (DESIGN.md §16).

   Everything here assumes the wire is hostile: fragments may be
   duplicated, reordered, overlapping (teardrop), oversized, or simply
   never completed.  The defense is uniform — small fixed quotas, a
   short timeout, and reject-don't-repair on any inconsistency.  Memory
   is bounded by construction: at most [max_datagrams] open
   reassemblies, each holding at most [max_fragments] fragment slices,
   each slice no larger than one frame payload; the full-size datagram
   buffer is allocated exactly once, at completion. *)

type reject =
  | Frag_bounds
  | Frag_table_full
  | Frag_src_quota
  | Frag_too_many
  | Frag_overlap

let reject_name = function
  | Frag_bounds -> "frag-bounds"
  | Frag_table_full -> "frag-table-full"
  | Frag_src_quota -> "frag-src-quota"
  | Frag_too_many -> "frag-too-many"
  | Frag_overlap -> "frag-overlap"

type verdict =
  | Complete of Packet.Ipv4.t
  | Pending
  | Rejected of reject

type key = { src : int; ident : int; proto : int }

type entry = {
  template : Packet.Ipv4.t; (* header fields of the first-seen fragment *)
  mutable frags : (int * Bytes.t) list; (* (offset, slice), sorted, disjoint *)
  mutable nfrags : int;
  mutable have : int; (* bytes accumulated *)
  mutable total : int option; (* set by the more=false fragment *)
  mutable born : int64; (* clock reading at first fragment *)
}

type t = {
  clock : unit -> int64;
  table : (key, entry) Hashtbl.t;
  mutable expired : int;
}

(* Maximum reassembled IP payload: 65,535 total length minus the
   20-byte header.  Any fragment reaching past it is an attack or a
   broken sender, never a datagram we could represent. *)
let max_payload = 65_535 - Packet.Ipv4.header_size

let create ?(clock = fun () -> 0L) () =
  { clock; table = Hashtbl.create 16; expired = 0 }

let active t = Hashtbl.length t.table

let expired t = t.expired

let key_of (p : Packet.Ipv4.t) =
  {
    src = Packet.Addr.Ip.to_int p.src;
    ident = p.ident;
    proto = Packet.Ipv4.proto_to_int p.proto;
  }

(* Lazy timeout eviction: no background fiber, just a sweep on the
   insert path — the only path that can grow the table.  O(table) with
   table <= max_datagrams, so the cost is a small constant. *)
let sweep t =
  let now = t.clock () in
  let dead =
    Hashtbl.fold
      (fun k e acc ->
        if Int64.sub now e.born > Sgx.Params.reassembly_timeout then k :: acc
        else acc)
      t.table []
  in
  List.iter
    (fun k ->
      Hashtbl.remove t.table k;
      t.expired <- t.expired + 1)
    dead

let per_source t src =
  Hashtbl.fold (fun k _ acc -> if k.src = src then acc + 1 else acc) t.table 0

let kill t k reason =
  Hashtbl.remove t.table k;
  Rejected reason

(* Insert [(off, slice)] keeping the list sorted and disjoint.
   [`Dup] is an exact duplicate (same offset and length — the link's
   benign Wire_dup fault), absorbed silently; any partial overlap is a
   teardrop-style conflict and poisons the whole reassembly. *)
let add_slice frags ~off ~len slice =
  let fits prev_end next_off = prev_end <= off && off + len <= next_off in
  let rec go prev_end = function
    | [] -> if prev_end <= off then `Ok [ (off, slice) ] else `Overlap
    | (o, s) :: rest as l ->
        if o = off && Bytes.length s = len then `Dup
        else if fits prev_end o then `Ok ((off, slice) :: l)
        else if o + Bytes.length s <= off then
          match go (o + Bytes.length s) rest with
          | `Ok rest' -> `Ok ((o, s) :: rest')
          | (`Dup | `Overlap) as r -> r
        else `Overlap
  in
  go 0 frags

let assemble e total =
  let buf = Bytes.create total in
  List.iter
    (fun (off, slice) -> Bytes.blit slice 0 buf off (Bytes.length slice))
    e.frags;
  { e.template with Packet.Ipv4.payload = buf }

(* Complete iff the final fragment fixed [total] and the disjoint slices
   sum to exactly [total] bytes: disjoint intervals inside [0, total)
   totalling [total] necessarily tile it, so no separate gap scan. *)
let check_complete t k e =
  match e.total with
  | Some total when e.have = total ->
      Hashtbl.remove t.table k;
      Complete (assemble e total)
  | _ -> Pending

let insert t (frag : Packet.Ipv4.fragment) =
  sweep t;
  let p = frag.packet in
  let off = frag.frag_offset in
  let len = Bytes.length p.payload in
  if off + len > max_payload then Rejected Frag_bounds
  else if frag.more && len mod 8 <> 0 then
    (* Only the final fragment may have a non-multiple-of-8 payload. *)
    Rejected Frag_bounds
  else
    let k = key_of p in
    match Hashtbl.find_opt t.table k with
    | None ->
        if Hashtbl.length t.table >= Sgx.Params.reassembly_max_datagrams then
          Rejected Frag_table_full
        else if per_source t k.src >= Sgx.Params.reassembly_max_per_source
        then Rejected Frag_src_quota
        else
          let e =
            {
              template = p;
              frags = [ (off, p.payload) ];
              nfrags = 1;
              have = len;
              total = (if frag.more then None else Some (off + len));
              born = t.clock ();
            }
          in
          Hashtbl.add t.table k e;
          check_complete t k e
    | Some e -> (
        if e.nfrags >= Sgx.Params.reassembly_max_fragments then
          kill t k Frag_too_many
        else
          match e.total with
          | Some total when off + len > total ->
              (* Reaches past the already-fixed end: conflicting
                 geometry, same poison as an overlap. *)
              kill t k Frag_overlap
          | Some _ when not frag.more ->
              if e.total = Some (off + len) then Pending (* dup of final *)
              else kill t k Frag_overlap
          | _ -> (
              match add_slice e.frags ~off ~len p.payload with
              | `Overlap -> kill t k Frag_overlap
              | `Dup -> Pending
              | `Ok frags -> (
                  e.frags <- frags;
                  e.nfrags <- e.nfrags + 1;
                  e.have <- e.have + len;
                  if not frag.more then e.total <- Some (off + len);
                  match e.total with
                  | Some total
                    when List.exists
                           (fun (o, s) -> o + Bytes.length s > total)
                           e.frags ->
                      (* A previously-accepted slice reaches past the end
                         the final fragment just fixed. *)
                      kill t k Frag_overlap
                  | _ -> check_complete t k e)))
