(* Tests for ring layouts, u32 index arithmetic, certified rings
   (Table 2 checks), naive rings (§5 case studies) and raw accessors. *)

open Rings

let check = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let make_ring ?(size = 8) () =
  let region =
    Mem.Region.create ~kind:Untrusted ~name:"ring"
      ~size:(Layout.footprint ~entry_size:8 ~size + 16)
  in
  let alloc = Mem.Alloc.create region () in
  Layout.alloc alloc ~entry_size:8 ~size

let write_slot l ~slot_off v = Mem.Region.set_u64 l.Layout.region slot_off v

let read_slot l ~slot_off = Mem.Region.get_u64 l.Layout.region slot_off

(* {1 U32} *)

let test_u32_wrap_sub () =
  check "simple" 3 (U32.sub 10 7);
  check "wraps" 2 (U32.sub 1 U32.mask);
  check "full wrap" 0 (U32.sub 5 5);
  check "negative wraps high" (U32.mask - 2) (U32.sub 7 10)

let test_u32_succ_wraps () = check "succ max" 0 (U32.succ U32.mask)

let test_u32_distance () =
  check "ahead" 5 (U32.distance ~ahead:105 ~behind:100);
  check "across wrap" 10 (U32.distance ~ahead:5 ~behind:(U32.mask - 4))

(* {1 Layout} *)

let test_layout_requires_pow2 () =
  let region = Mem.Region.create ~kind:Untrusted ~name:"r" ~size:1024 in
  Alcotest.check_raises "non-pow2"
    (Invalid_argument "Layout.make: size not a power of 2") (fun () ->
      ignore
        (Layout.make region ~prod_off:0 ~cons_off:4 ~desc_off:8 ~entry_size:8
           ~size:6))

let test_layout_bounds_checked () =
  let region = Mem.Region.create ~kind:Untrusted ~name:"r" ~size:32 in
  match
    Layout.make region ~prod_off:0 ~cons_off:4 ~desc_off:8 ~entry_size:8
      ~size:8
  with
  | _ -> Alcotest.fail "descriptor array does not fit"
  | exception Invalid_argument _ -> ()

let test_layout_slot_wraps () =
  let l = make_ring ~size:8 () in
  check "slot 0" (Layout.slot_off l 0) (Layout.slot_off l 8);
  check "slot 3" (Layout.slot_off l 3) (Layout.slot_off l 11);
  check_bool "distinct slots" true (Layout.slot_off l 0 <> Layout.slot_off l 1)

let test_layout_index_io () =
  let l = make_ring () in
  Layout.write_prod l 42;
  Layout.write_cons l 17;
  check "prod" 42 (Layout.read_prod l);
  check "cons" 17 (Layout.read_cons l)

(* {1 Raw} *)

let test_raw_produce_consume () =
  let l = make_ring ~size:4 () in
  check "initially free" 4 (Raw.free l);
  check "initially empty" 0 (Raw.available l);
  check_bool "produce" true (Raw.produce l ~write:(fun ~slot_off -> write_slot l ~slot_off 7L));
  check "one available" 1 (Raw.available l);
  (match Raw.consume l ~read:(fun ~slot_off -> read_slot l ~slot_off) with
  | Some 7L -> ()
  | _ -> Alcotest.fail "wrong value");
  check "empty again" 0 (Raw.available l)

let test_raw_full_ring () =
  let l = make_ring ~size:2 () in
  let produce v = Raw.produce l ~write:(fun ~slot_off -> write_slot l ~slot_off v) in
  check_bool "1" true (produce 1L);
  check_bool "2" true (produce 2L);
  check_bool "full" false (produce 3L)

let test_raw_fifo_order () =
  let l = make_ring ~size:4 () in
  List.iter
    (fun v -> ignore (Raw.produce l ~write:(fun ~slot_off -> write_slot l ~slot_off v)))
    [ 1L; 2L; 3L ];
  let next () = Raw.consume l ~read:(fun ~slot_off -> read_slot l ~slot_off) in
  (* Sequence explicitly: list literals evaluate right-to-left. *)
  let a = next () in
  let b = next () in
  let c = next () in
  let d = next () in
  Alcotest.(check (list (option int64)))
    "order" [ Some 1L; Some 2L; Some 3L; None ] [ a; b; c; d ]

let test_raw_peek () =
  let l = make_ring ~size:4 () in
  ignore (Raw.produce l ~write:(fun ~slot_off -> write_slot l ~slot_off 9L));
  (match Raw.consume_peek l ~read:(fun ~slot_off -> read_slot l ~slot_off) with
  | Some 9L -> ()
  | _ -> Alcotest.fail "peek");
  check "peek does not consume" 1 (Raw.available l)

(* {1 Certified: honest operation} *)

let certified_pair ?(size = 8) () =
  (* An enclave producer and an enclave consumer on two independent
     rings, with a Raw kernel on the opposite side. *)
  let l = make_ring ~size () in
  (l, Certified.create l ~role:Certified.Producer ())

let test_certified_producer_honest () =
  let l, prod = certified_pair ~size:4 () in
  check "free" 4 (Certified.free_slots prod);
  for i = 1 to 4 do
    match
      Certified.produce prod ~write:(fun ~slot_off ->
          write_slot l ~slot_off (Int64.of_int i))
    with
    | Ok () -> ()
    | Error `Ring_full -> Alcotest.fail "should fit"
  done;
  check_bool "full" true (Certified.produce prod ~write:(fun ~slot_off:_ -> ()) = Error `Ring_full);
  Certified.publish prod;
  check "kernel sees all" 4 (Raw.available l);
  (* Kernel consumes two; the enclave's free count follows. *)
  ignore (Raw.consume l ~read:(fun ~slot_off -> read_slot l ~slot_off));
  ignore (Raw.consume l ~read:(fun ~slot_off -> read_slot l ~slot_off));
  check "freed" 2 (Certified.free_slots prod);
  check "no failures" 0 (Certified.failures prod)

let test_certified_consumer_honest () =
  let l = make_ring ~size:4 () in
  let cons = Certified.create l ~role:Certified.Consumer () in
  check "empty" 0 (Certified.available cons);
  ignore (Raw.produce l ~write:(fun ~slot_off -> write_slot l ~slot_off 11L));
  ignore (Raw.produce l ~write:(fun ~slot_off -> write_slot l ~slot_off 22L));
  check "two available" 2 (Certified.available cons);
  (match Certified.consume cons ~read:(fun ~slot_off -> read_slot l ~slot_off) with
  | Ok 11L -> ()
  | _ -> Alcotest.fail "fifo");
  check "kernel sees release" 1 (Raw.free l - 2)
  (* free = size - (prod - cons) = 4 - (2 - 1) = 3 *)

let test_certified_publish_required () =
  let l, prod = certified_pair ~size:4 () in
  ignore (Certified.produce prod ~write:(fun ~slot_off -> write_slot l ~slot_off 5L));
  check "not visible before publish" 0 (Raw.available l);
  Certified.publish prod;
  check "visible after publish" 1 (Raw.available l)

let test_certified_role_enforced () =
  let _, prod = certified_pair () in
  Alcotest.check_raises "consume as producer"
    (Invalid_argument "Certified.available: ring role does not permit this")
    (fun () -> ignore (Certified.available prod))

let test_certified_wraparound_long_run () =
  (* Run enough traffic through a tiny ring to wrap u32 slot indices
     several times (scaled: we start near the wrap point). *)
  let l = make_ring ~size:2 () in
  let cons = Certified.create l ~role:Certified.Consumer () in
  for i = 1 to 1000 do
    ignore
      (Raw.produce l ~write:(fun ~slot_off -> write_slot l ~slot_off (Int64.of_int i)));
    match Certified.consume cons ~read:(fun ~slot_off -> read_slot l ~slot_off) with
    | Ok v when v = Int64.of_int i -> ()
    | _ -> Alcotest.fail "wrap traffic"
  done;
  check_bool "invariant" true (Certified.invariant_holds cons);
  check "no failures" 0 (Certified.failures cons)

(* {1 Certified: Table 2 checks under attack} *)

let test_certified_consumer_rejects_overshoot () =
  let l = make_ring ~size:4 () in
  let cons = Certified.create l ~role:Certified.Consumer () in
  Hostos.Malice.smash_prod l 5 (* > Ct + size *);
  check "refused: nothing available" 0 (Certified.available cons);
  check "failure recorded" 1 (Certified.failures cons);
  check_bool "invariant" true (Certified.invariant_holds cons)

let test_certified_consumer_rejects_regress () =
  let l = make_ring ~size:4 () in
  let cons = Certified.create l ~role:Certified.Consumer () in
  ignore (Raw.produce l ~write:(fun ~slot_off -> write_slot l ~slot_off 1L));
  ignore (Raw.produce l ~write:(fun ~slot_off -> write_slot l ~slot_off 2L));
  check "sees two" 2 (Certified.available cons);
  Hostos.Malice.smash_prod l 1 (* regress below the validated value *);
  check "trusted copy keeps the window" 2 (Certified.available cons);
  check_bool "failure recorded" true (Certified.failures cons > 0)

let test_certified_producer_rejects_cons_ahead () =
  let l, prod = certified_pair ~size:4 () in
  Hostos.Malice.smash_cons l 2 (* claims consumption beyond production *);
  check "free stays at size" 4 (Certified.free_slots prod);
  check "failure recorded" 1 (Certified.failures prod);
  check_bool "invariant" true (Certified.invariant_holds prod)

let test_certified_producer_rejects_wrap_attack () =
  (* The u32-wrap attack the paper's supplementary checks target:
     consumer value far in the "past" making (Pt - Cu) wrap huge. *)
  let l, prod = certified_pair ~size:4 () in
  ignore (Certified.produce prod ~write:(fun ~slot_off:_ -> ()));
  Certified.publish prod;
  Hostos.Malice.smash_cons l 0x80000000;
  check "window unchanged" 3 (Certified.free_slots prod);
  check_bool "invariant" true (Certified.invariant_holds prod)

let test_certified_consumer_wrap_attack () =
  let l = make_ring ~size:4 () in
  let cons = Certified.create l ~role:Certified.Consumer () in
  Hostos.Malice.smash_prod l U32.mask;
  check "refused" 0 (Certified.available cons);
  Hostos.Malice.smash_prod l 0x80000000;
  check "refused" 0 (Certified.available cons);
  check "both rejected" 2 (Certified.failures cons)

let test_certified_skip_advances () =
  let l = make_ring ~size:4 () in
  let cons = Certified.create l ~role:Certified.Consumer () in
  ignore (Raw.produce l ~write:(fun ~slot_off -> write_slot l ~slot_off 1L));
  ignore (Raw.produce l ~write:(fun ~slot_off -> write_slot l ~slot_off 2L));
  ignore (Certified.available cons);
  Certified.skip cons (* the "refuse and advance consumer" fail action *);
  (match Certified.consume cons ~read:(fun ~slot_off -> read_slot l ~slot_off) with
  | Ok 2L -> ()
  | _ -> Alcotest.fail "skip must advance past the first entry");
  Certified.skip cons (* empty: no-op *);
  check_bool "invariant" true (Certified.invariant_holds cons)

let test_certified_on_failure_callback () =
  let l = make_ring ~size:4 () in
  let seen = ref [] in
  let cons =
    Certified.create l ~role:Certified.Consumer
      ~on_failure:(fun f -> seen := f :: !seen)
      ()
  in
  Hostos.Malice.smash_prod l 100;
  ignore (Certified.available cons);
  match !seen with
  | [ Certified.Out_of_window { observed = 100; _ } ] -> ()
  | _ -> Alcotest.fail "expected Out_of_window callback"

(* {1 Certified: batch accessors} *)

let test_batch_empty_ring () =
  let l = make_ring ~size:4 () in
  let cons = Certified.create l ~role:Certified.Consumer () in
  check "consume_batch on empty" 0
    (Certified.consume_batch cons ~max:4 ~read:(fun ~slot_off:_ _ ->
         Alcotest.fail "callback on empty ring"));
  check "no bursts counted" 0 (Certified.bursts cons)

let test_batch_produce_fills_exactly () =
  let l, prod = certified_pair ~size:4 () in
  (* Ask for more than fits: the batch clamps to the validated window
     and publishes once. *)
  let n =
    Certified.produce_batch prod ~count:7 ~write:(fun ~slot_off i ->
        write_slot l ~slot_off (Int64.of_int (10 + i)))
  in
  check "clamped to ring size" 4 n;
  check "published in one store" 4 (Raw.available l);
  check "exactly-full ring produces zero" 0
    (Certified.produce_batch prod ~count:1 ~write:(fun ~slot_off:_ _ ->
         Alcotest.fail "callback on full ring"));
  (* FIFO content arrived in batch order. *)
  (match Raw.consume l ~read:(fun ~slot_off -> read_slot l ~slot_off) with
  | Some 10L -> ()
  | _ -> Alcotest.fail "batch write order");
  check "burst counters" 1 (Certified.bursts prod);
  check "burst slots" 4 (Certified.burst_slots prod)

let test_batch_consume_drains () =
  let l = make_ring ~size:8 () in
  let cons = Certified.create l ~role:Certified.Consumer () in
  for v = 1 to 5 do
    ignore
      (Raw.produce l ~write:(fun ~slot_off ->
           write_slot l ~slot_off (Int64.of_int v)))
  done;
  let seen = ref [] in
  let n =
    Certified.consume_batch cons ~max:3 ~read:(fun ~slot_off i ->
        seen := (i, read_slot l ~slot_off) :: !seen)
  in
  check "max respected" 3 n;
  Alcotest.(check (list (pair int int64)))
    "batch order and positions"
    [ (0, 1L); (1, 2L); (2, 3L) ]
    (List.rev !seen);
  check "released once, all three" 3 (Layout.read_cons l);
  check "rest still available" 2 (Certified.available cons)

let test_batch_wraparound_u32_boundary () =
  (* Attach near the u32 wrap point: index arithmetic must carry the
     burst across 0xFFFFFFFF -> 0 without losing slots. *)
  let start = Rings.U32.mask - 1 in
  let l = make_ring ~size:4 () in
  Layout.write_prod l start;
  Layout.write_cons l start;
  let prod = Certified.create l ~role:Certified.Producer ~init:start () in
  let n =
    Certified.produce_batch prod ~count:4 ~write:(fun ~slot_off i ->
        write_slot l ~slot_off (Int64.of_int (100 + i)))
  in
  check "full burst across the wrap" 4 n;
  check "shared producer wrapped" 2 (Layout.read_prod l);
  check_bool "invariant across wrap" true (Certified.invariant_holds prod);
  (* Consumer side across the same wrap. *)
  let cons = Certified.create l ~role:Certified.Consumer ~init:start () in
  let got = ref [] in
  let m =
    Certified.consume_batch cons ~max:4 ~read:(fun ~slot_off _ ->
        got := read_slot l ~slot_off :: !got)
  in
  check "consumed across the wrap" 4 m;
  Alcotest.(check (list int64))
    "fifo across the wrap" [ 100L; 101L; 102L; 103L ] (List.rev !got);
  check "shared consumer wrapped" 2 (Layout.read_cons l);
  check_bool "invariant" true (Certified.invariant_holds cons);
  check "no failures" 0 (Certified.failures cons)

let test_batch_malice_between_bursts () =
  let l = make_ring ~size:4 () in
  let cons = Certified.create l ~role:Certified.Consumer () in
  for v = 1 to 2 do
    ignore
      (Raw.produce l ~write:(fun ~slot_off ->
           write_slot l ~slot_off (Int64.of_int v)))
  done;
  check "honest burst" 2
    (Certified.consume_batch cons ~max:4 ~read:(fun ~slot_off:_ _ -> ()));
  (* Hostile index jump between bursts: the next burst's single refresh
     must reject it and move nothing. *)
  Hostos.Malice.smash_prod l 100;
  check "hostile burst refused" 0
    (Certified.consume_batch cons ~max:4 ~read:(fun ~slot_off:_ _ ->
         Alcotest.fail "slot handed out under attack"));
  check "failure recorded" 1 (Certified.failures cons);
  check_bool "invariant" true (Certified.invariant_holds cons)

let test_batch_malice_mid_burst () =
  (* A hostile move between the burst's refresh and its publish must not
     affect the burst in progress, and must be caught next refresh —
     on the consumer side (producer word smashed inside [read]) and on
     the producer side (consumer word smashed inside [write]). *)
  let l = make_ring ~size:4 () in
  let cons = Certified.create l ~role:Certified.Consumer () in
  for v = 1 to 3 do
    ignore
      (Raw.produce l ~write:(fun ~slot_off ->
           write_slot l ~slot_off (Int64.of_int v)))
  done;
  let n =
    Certified.consume_batch cons ~max:3 ~read:(fun ~slot_off:_ i ->
        if i = 0 then Hostos.Malice.smash_prod l 0x80000000)
  in
  check "burst ran on its validated snapshot" 3 n;
  check "mid-burst move not yet observed" 0 (Certified.failures cons);
  check "caught on the next refresh" 0 (Certified.available cons);
  check "failure recorded" 1 (Certified.failures cons);
  check_bool "invariant" true (Certified.invariant_holds cons);
  let l, prod = certified_pair ~size:4 () in
  let n =
    Certified.produce_batch prod ~count:3 ~write:(fun ~slot_off i ->
        write_slot l ~slot_off (Int64.of_int i);
        if i = 0 then Hostos.Malice.smash_cons l 0x80000000)
  in
  check "produce burst ran on its validated snapshot" 3 n;
  check "published once, all three" 3 (Layout.read_prod l);
  check "mid-burst move not yet observed (producer)" 0
    (Certified.failures prod);
  check "caught on the next refresh (producer)" 1 (Certified.free_slots prod);
  check "failure recorded (producer)" 1 (Certified.failures prod);
  check_bool "invariant (producer)" true (Certified.invariant_holds prod)

let test_batch_matches_single_op_counts () =
  (* The batched path must move exactly the same number of entries as
     the per-op path over identical traffic. *)
  let batched = ref 0 and single = ref 0 in
  let l1 = make_ring ~size:4 () in
  let c1 = Certified.create l1 ~role:Certified.Consumer () in
  let l2 = make_ring ~size:4 () in
  let c2 = Certified.create l2 ~role:Certified.Consumer () in
  for round = 1 to 50 do
    let burst = 1 + (round mod 4) in
    for v = 1 to burst do
      ignore
        (Raw.produce l1 ~write:(fun ~slot_off ->
             write_slot l1 ~slot_off (Int64.of_int v)));
      ignore
        (Raw.produce l2 ~write:(fun ~slot_off ->
             write_slot l2 ~slot_off (Int64.of_int v)))
    done;
    batched :=
      !batched + Certified.consume_batch c1 ~max:8 ~read:(fun ~slot_off:_ _ -> ());
    let rec drain () =
      match Certified.consume c2 ~read:(fun ~slot_off:_ -> ()) with
      | Ok () ->
          incr single;
          drain ()
      | Error `Ring_empty -> ()
    in
    drain ()
  done;
  check "same totals" !single !batched;
  check "trusted state agrees" (Certified.trusted_cons c2)
    (Certified.trusted_cons c1)

(* {1 Naive rings: the §5 case studies} *)

let test_naive_prod_nb_free_overshoot () =
  (* xsk_prod_nb_free trusts the shared consumer: a hostile consumer
     value makes it report more free slots than the ring has. *)
  let l = make_ring ~size:4 () in
  let naive = Naive.create l in
  Hostos.Malice.smash_cons l 3 (* "consumed" 3 of 0 produced *);
  let free = Naive.prod_nb_free naive ~wanted:5 in
  check_bool "reports > size (the libxdp bug)" true (free > 4)

let test_naive_batch_overwrites_inflight () =
  (* Following the bogus free count, a batch producer overwrites
     descriptors the kernel has not consumed — the buffer overflow. *)
  let l = make_ring ~size:4 () in
  let naive = Naive.create l in
  (* 4 legitimate in-flight descriptors. *)
  ignore
    (Naive.produce_batch naive ~count:4 ~write:(fun ~slot_off i ->
         write_slot l ~slot_off (Int64.of_int (100 + i))));
  Hostos.Malice.smash_cons l 4 (* hostile: "all consumed" *);
  let n =
    Naive.produce_batch naive ~count:4 ~write:(fun ~slot_off i ->
        write_slot l ~slot_off (Int64.of_int (200 + i)))
  in
  check "overwrote a full window" 4 n;
  (* Slot 0 now holds the new value even though the kernel never
     consumed the old one. *)
  Alcotest.(check int64) "in-flight descriptor clobbered" 200L
    (read_slot l ~slot_off:(Layout.slot_off l 0));
  (* From the honest kernel's viewpoint (its true consumer is still 0)
     the shared ring now claims more in-flight entries than it has
     slots — the overflow state RAKIS's checks make unreachable. *)
  check_bool "ring overflowed for the kernel" true
    (U32.distance ~ahead:(Layout.read_prod l) ~behind:0 > 4)

let test_naive_consumer_accepts_garbage () =
  (* The liburing-style consumer trusts the shared producer index and
     hands back never-produced entries (Appendix A's primitive). *)
  let l = make_ring ~size:4 () in
  let naive = Naive.create l in
  Hostos.Malice.smash_prod l 3;
  check "fabricated availability" 3 (Naive.available naive);
  (match Naive.consume naive ~read:(fun ~slot_off -> read_slot l ~slot_off) with
  | Some _ -> ()
  | None -> Alcotest.fail "naive consumed nothing");
  Hostos.Malice.smash_prod l (U32.mask - 1);
  check_bool "availability explodes past size" true
    (Naive.available naive > 4)

let test_certified_vs_naive_same_attack () =
  (* Under the identical attack, certified refuses what naive accepts. *)
  let l1 = make_ring ~size:4 () in
  let l2 = make_ring ~size:4 () in
  let cert = Certified.create l1 ~role:Certified.Consumer () in
  let naive = Naive.create l2 in
  Hostos.Malice.smash_prod l1 9;
  Hostos.Malice.smash_prod l2 9;
  check "certified refuses" 0 (Certified.available cert);
  check_bool "naive accepts" true (Naive.available naive > 4)

(* {1 Properties} *)

let index_gen = QCheck.Gen.(oneof [ 0 -- 100; map U32.of_int int ])

let prop_certified_invariant_any_smash =
  QCheck.Test.make
    ~name:"certified: invariant holds after any index smash sequence"
    ~count:1000
    (QCheck.make
       QCheck.Gen.(list_size (1 -- 20) (pair index_gen (0 -- 3))))
    (fun script ->
      let l = make_ring ~size:8 () in
      let cons = Certified.create l ~role:Certified.Consumer () in
      let l2 = make_ring ~size:8 () in
      let prod = Certified.create l2 ~role:Certified.Producer () in
      List.iter
        (fun (v, op) ->
          Hostos.Malice.smash_prod l v;
          Hostos.Malice.smash_cons l2 v;
          match op with
          | 0 -> ignore (Certified.available cons)
          | 1 ->
              ignore
                (Certified.consume cons ~read:(fun ~slot_off ->
                     read_slot l ~slot_off))
          | 2 -> ignore (Certified.free_slots prod)
          | _ -> (
              match Certified.produce prod ~write:(fun ~slot_off:_ -> ()) with
              | Ok () -> Certified.publish prod
              | Error `Ring_full -> ()))
        script;
      Certified.invariant_holds cons
      && Certified.invariant_holds prod
      && Certified.available cons <= 8
      && Certified.free_slots prod <= 8)

let prop_raw_fifo =
  QCheck.Test.make ~name:"raw: fifo across arbitrary produce/consume mixes"
    ~count:300
    (QCheck.make QCheck.Gen.(list_size (1 -- 64) bool))
    (fun script ->
      let l = make_ring ~size:8 () in
      let sent = Queue.create () in
      let next = ref 0L in
      List.for_all
        (fun produce ->
          if produce then begin
            let v = !next in
            if Raw.produce l ~write:(fun ~slot_off -> write_slot l ~slot_off v)
            then begin
              Queue.add v sent;
              next := Int64.add v 1L
            end;
            true
          end
          else
            match Raw.consume l ~read:(fun ~slot_off -> read_slot l ~slot_off) with
            | None -> Queue.is_empty sent
            | Some v -> (
                match Queue.take_opt sent with
                | Some expect -> Int64.equal v expect
                | None -> false))
        script)

let u32_pair = QCheck.make QCheck.Gen.(pair (0 -- U32.mask) (0 -- U32.mask))

let prop_u32_add_sub_inverse =
  QCheck.Test.make ~name:"u32: sub inverts add for any operands" ~count:2000
    u32_pair
    (fun (a, b) -> U32.sub (U32.add a b) b = a && U32.add (U32.sub a b) b = a)

let prop_u32_results_in_range =
  QCheck.Test.make ~name:"u32: every result stays within [0, mask]"
    ~count:2000 u32_pair
    (fun (a, b) ->
      let in_range v = v >= 0 && v <= U32.mask in
      in_range (U32.add a b)
      && in_range (U32.sub a b)
      && in_range (U32.succ a)
      && in_range (U32.distance ~ahead:a ~behind:b))

let prop_u32_distance_antisymmetric =
  (* d(a,b) + d(b,a) = 0 (mod 2^32): the two directions around the ring
     are complements. *)
  QCheck.Test.make ~name:"u32: distance is antisymmetric mod 2^32"
    ~count:2000 u32_pair
    (fun (a, b) ->
      U32.add
        (U32.distance ~ahead:a ~behind:b)
        (U32.distance ~ahead:b ~behind:a)
      = 0)

let prop_u32_distance_shift_invariant =
  (* Shifting both cursors by the same amount — in particular across the
     2^32 wrap — leaves their distance unchanged.  This is the property
     every certified window check relies on. *)
  QCheck.Test.make ~name:"u32: distance invariant under common shifts"
    ~count:2000
    (QCheck.make
       QCheck.Gen.(pair (pair (0 -- U32.mask) (0 -- U32.mask)) (0 -- U32.mask)))
    (fun ((a, b), k) ->
      U32.distance ~ahead:(U32.add a k) ~behind:(U32.add b k)
      = U32.distance ~ahead:a ~behind:b)

let prop_u32_succ_is_add_one =
  QCheck.Test.make ~name:"u32: succ = add 1, wrapping at mask" ~count:2000
    (QCheck.make QCheck.Gen.(0 -- U32.mask))
    (fun a ->
      U32.succ a = U32.add a 1
      && (a <> U32.mask || U32.succ a = 0)
      && U32.distance ~ahead:(U32.succ a) ~behind:a = 1)

let props =
  List.map (QCheck_alcotest.to_alcotest ~rand:(Flake.rand ()))
    [
      prop_certified_invariant_any_smash;
      prop_raw_fifo;
      prop_u32_add_sub_inverse;
      prop_u32_results_in_range;
      prop_u32_distance_antisymmetric;
      prop_u32_distance_shift_invariant;
      prop_u32_succ_is_add_one;
    ]

let suite =
  [
    ("u32: wrap-aware subtraction", `Quick, test_u32_wrap_sub);
    ("u32: succ wraps", `Quick, test_u32_succ_wraps);
    ("u32: distance", `Quick, test_u32_distance);
    ("layout: power-of-two enforced", `Quick, test_layout_requires_pow2);
    ("layout: bounds checked", `Quick, test_layout_bounds_checked);
    ("layout: slot offsets wrap", `Quick, test_layout_slot_wraps);
    ("layout: index read/write", `Quick, test_layout_index_io);
    ("raw: produce/consume", `Quick, test_raw_produce_consume);
    ("raw: full ring", `Quick, test_raw_full_ring);
    ("raw: fifo order", `Quick, test_raw_fifo_order);
    ("raw: peek", `Quick, test_raw_peek);
    ("certified: honest producer", `Quick, test_certified_producer_honest);
    ("certified: honest consumer", `Quick, test_certified_consumer_honest);
    ("certified: publish required", `Quick, test_certified_publish_required);
    ("certified: role enforced", `Quick, test_certified_role_enforced);
    ("certified: long run over wrap", `Quick,
     test_certified_wraparound_long_run);
    ("certified: consumer rejects overshoot (Table 2)", `Quick,
     test_certified_consumer_rejects_overshoot);
    ("certified: consumer rejects regression", `Quick,
     test_certified_consumer_rejects_regress);
    ("certified: producer rejects consumer-ahead (Table 2)", `Quick,
     test_certified_producer_rejects_cons_ahead);
    ("certified: producer wrap attack", `Quick,
     test_certified_producer_rejects_wrap_attack);
    ("certified: consumer wrap attack", `Quick,
     test_certified_consumer_wrap_attack);
    ("certified: skip fail-action", `Quick, test_certified_skip_advances);
    ("certified: failure callback", `Quick,
     test_certified_on_failure_callback);
    ("certified batch: empty ring", `Quick, test_batch_empty_ring);
    ("certified batch: produce clamps to exactly-full", `Quick,
     test_batch_produce_fills_exactly);
    ("certified batch: consume drains in order", `Quick,
     test_batch_consume_drains);
    ("certified batch: u32 wraparound", `Quick,
     test_batch_wraparound_u32_boundary);
    ("certified batch: malice between bursts", `Quick,
     test_batch_malice_between_bursts);
    ("certified batch: malice mid-burst", `Quick,
     test_batch_malice_mid_burst);
    ("certified batch: totals match single-op path", `Quick,
     test_batch_matches_single_op_counts);
    ("naive: xsk_prod_nb_free overshoot (libxdp case study)", `Quick,
     test_naive_prod_nb_free_overshoot);
    ("naive: batch overwrite of in-flight descriptors", `Quick,
     test_naive_batch_overwrites_inflight);
    ("naive: consumer accepts fabricated entries (liburing case study)",
     `Quick, test_naive_consumer_accepts_garbage);
    ("naive vs certified under identical attack", `Quick,
     test_certified_vs_naive_same_attack);
  ]
  @ props
