(* Bechamel micro-benchmarks of the hot primitives: certified vs naive
   ring accessors (the cost of RAKIS's Table 2 checks), single vs
   batched certified rings, scalar vs word checksums, and the SQE codec.
   Wall-clock, not simulated time: these measure the reproduction's own
   code.  The packet codecs and the UMem cycle are timed by bench/e2e's
   layer drive ([packet.*], [core.umem.cycle.ns]). *)

open Bechamel
open Toolkit

let make_ring size =
  let region =
    Mem.Region.create ~kind:Untrusted ~name:"bench"
      ~size:(Rings.Layout.footprint ~entry_size:8 ~size + 16)
  in
  let alloc = Mem.Alloc.create region () in
  Rings.Layout.alloc alloc ~entry_size:8 ~size

let certified_roundtrip =
  Test.make ~name:"ring: certified produce+consume"
    (Staged.stage (fun () ->
         let l = make_ring 8 in
         let prod = Rings.Certified.create l ~role:Rings.Certified.Producer () in
         for _ = 1 to 64 do
           (match
              Rings.Certified.produce prod ~write:(fun ~slot_off ->
                  Mem.Region.set_u64 l.Rings.Layout.region slot_off 42L)
            with
           | Ok () -> Rings.Certified.publish prod
           | Error `Ring_full -> ());
           ignore
             (Rings.Raw.consume l ~read:(fun ~slot_off ->
                  Mem.Region.get_u64 l.Rings.Layout.region slot_off))
         done))

let raw_roundtrip =
  Test.make ~name:"ring: raw produce+consume (no checks)"
    (Staged.stage (fun () ->
         let l = make_ring 8 in
         for _ = 1 to 64 do
           ignore
             (Rings.Raw.produce l ~write:(fun ~slot_off ->
                  Mem.Region.set_u64 l.Rings.Layout.region slot_off 42L));
           ignore
             (Rings.Raw.consume l ~read:(fun ~slot_off ->
                  Mem.Region.get_u64 l.Rings.Layout.region slot_off))
         done))

let certified_single_roundtrip =
  (* Single-op baseline for the batched variant below: both endpoints
     certified, one refresh + one publish per slot. *)
  Test.make ~name:"ring: certified single produce+consume"
    (Staged.stage (fun () ->
         let l = make_ring 8 in
         let prod = Rings.Certified.create l ~role:Rings.Certified.Producer () in
         let cons = Rings.Certified.create l ~role:Rings.Certified.Consumer () in
         for _ = 1 to 64 do
           (match
              Rings.Certified.produce prod ~write:(fun ~slot_off ->
                  Mem.Region.set_u64 l.Rings.Layout.region slot_off 42L)
            with
           | Ok () -> Rings.Certified.publish prod
           | Error `Ring_full -> ());
           ignore
             (Rings.Certified.consume cons ~read:(fun ~slot_off ->
                  Mem.Region.get_u64 l.Rings.Layout.region slot_off))
         done))

let certified_batched_roundtrip =
  (* Same 64 slots as [certified_roundtrip], but one refresh + one
     publish per 8-slot burst instead of per slot. *)
  Test.make ~name:"ring: certified batched produce+consume (8/burst)"
    (Staged.stage (fun () ->
         let l = make_ring 8 in
         let prod = Rings.Certified.create l ~role:Rings.Certified.Producer () in
         let cons = Rings.Certified.create l ~role:Rings.Certified.Consumer () in
         for _ = 1 to 8 do
           ignore
             (Rings.Certified.produce_batch prod ~count:8
                ~write:(fun ~slot_off _ ->
                  Mem.Region.set_u64 l.Rings.Layout.region slot_off 42L));
           ignore
             (Rings.Certified.consume_batch cons ~max:8
                ~read:(fun ~slot_off _ ->
                  ignore (Mem.Region.get_u64 l.Rings.Layout.region slot_off)))
         done))

let checksum =
  Test.make ~name:"checksum: 1460 bytes"
    (let b = Bytes.make 1460 '\x5a' in
     Staged.stage (fun () -> ignore (Packet.Checksum.compute b 0 1460)))

let checksum_header =
  Test.make ~name:"checksum: 20 bytes (an IPv4 header)"
    (let b = Bytes.make 20 '\x5a' in
     Staged.stage (fun () -> ignore (Packet.Checksum.compute b 0 20)))

let checksum_scalar =
  Test.make ~name:"checksum: 1460 bytes, 16-bit scalar loop"
    (let b = Bytes.make 1460 '\x5a' in
     Staged.stage (fun () ->
         ignore
           (Packet.Checksum.finish (Packet.Checksum.ones_sum_scalar b 0 1460))))

let sqe_codec =
  Test.make ~name:"uring abi: sqe write+read"
    (let region = Mem.Region.create ~kind:Untrusted ~name:"b" ~size:64 in
     let sqe =
       {
         Abi.Uring_abi.opcode = Abi.Uring_abi.Write;
         fd = 3;
         file_off = 0L;
         addr = 0x1000;
         len = 4096;
         poll_events = 0;
         user_data = 1L;
         buf_index = 0;
         fixed = false;
       }
     in
     Staged.stage (fun () ->
         Abi.Uring_abi.write_sqe region 0 sqe;
         ignore (Abi.Uring_abi.read_sqe region 0)))

let run () =
  Format.printf "@.=== Micro-benchmarks (Bechamel; wall-clock of the \
                 reproduction's own primitives) ===@.";
  let tests =
    [
      certified_roundtrip;
      certified_single_roundtrip;
      certified_batched_roundtrip;
      raw_roundtrip;
      checksum;
      checksum_header;
      checksum_scalar;
      sqe_codec;
    ]
  in
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg Instance.[ monotonic_clock ] test
  in
  let analyze results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Instance.monotonic_clock results
  in
  List.iter
    (fun test ->
      let results = analyze (benchmark test) in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Format.printf "%-55s %12.1f ns/run@." name est
          | _ -> Format.printf "%-55s %12s@." name "n/a")
        results)
    tests
