(* Golden expect-traces (DESIGN.md §11).

   Each case renders a fully deterministic artifact — a campaign
   outcome, a breaker timeline, a batch of repro tokens, an explorer
   report — and compares it byte-for-byte against a checked-in file
   under [test/golden/].  A mismatch prints both versions; set
   [RAKIS_UPDATE_GOLDEN=1] (and run from the repo root, e.g.
   [RAKIS_UPDATE_GOLDEN=1 dune exec test/test_main.exe -- test golden])
   to regenerate the files after an intentional rendering change.

   No ppx_expect: the harness is ~40 lines of plain OCaml, which keeps
   the golden workflow dependency-free. *)

module C = Tm.Campaign
module F = Hostos.Faults
module I = Hostos.Injector

(* A schedule entry firing [what] once, at the first opportunity on or
   after workload step [step]. *)
let at step what = { I.what; when_ = I.At_step step; shard = None }

(* A schedule entry firing [what] with probability [p] at each
   opportunity inside steps [first..last]. *)
let during first last p what =
  {
    I.what;
    when_ = I.Burst { first_step = first; last_step = last; probability = p };
    shard = None;
  }

(* dune runtest sandboxes us in test/; dune exec runs from the root *)
let golden_dir =
  if Sys.file_exists "test/golden" then "test/golden"
  else if Sys.file_exists "golden" then "golden"
  else "test/golden"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let update_mode = Sys.getenv_opt "RAKIS_UPDATE_GOLDEN" <> None

let check_golden name actual =
  let path = Filename.concat golden_dir (name ^ ".txt") in
  if update_mode then begin
    write_file path actual;
    Printf.printf "golden: wrote %s (%d bytes)\n%!" path (String.length actual)
  end
  else if not (Sys.file_exists path) then
    Alcotest.failf
      "golden file %s missing — generate it with RAKIS_UPDATE_GOLDEN=1"
      path
  else
    let expected = read_file path in
    if expected <> actual then
      Alcotest.failf
        "golden %s mismatch\n--- expected (%s) ---\n%s\n--- actual ---\n%s\n\
         (rerun with RAKIS_UPDATE_GOLDEN=1 if the change is intentional)"
        name path expected actual

(* {1 Campaign outcomes} *)

let test_campaign_outcomes () =
  let xsk7 = { C.defaults with datapath = C.Xsk; seed = 7L; budget = 32 } in
  let clean = C.run xsk7 in
  let attacked =
    C.run
      {
        xsk7 with
        schedule =
      [
        at 4 Hostos.Malice.Prod_overshoot;
        during 8 16 1.0 Hostos.Malice.Misaligned_offset;
      ];
      }
  in
  let faulted =
    C.run
      {
        C.defaults with
        datapath = C.Iouring;
        seed = 11L;
        budget = 32;
        faults =
          [
            {
              I.what = F.Transient_errno;
              when_ =
                I.Burst { first_step = 4; last_step = 16; probability = 1.0 };
              shard = None;
            };
          ];
      }
  in
  let sharded =
    C.run
      {
        C.defaults with
        datapath = C.Xsk;
        seed = 5L;
        budget = 32;
        queues = 2;
        faults =
          [ { I.what = F.Drop_wakeup; when_ = I.Persistent; shard = Some 1 } ];
      }
  in
  (* The io_uring copy path under forged CQE results while the host
     also truncates transfers and stalls mid-batch. *)
  let attacked_uring =
    C.run
      {
        C.defaults with
        datapath = C.Iouring;
        seed = 8L;
        budget = 32;
        schedule = [ during 4 20 0.3 Hostos.Malice.Cqe_bogus_res ];
        faults = [ during 2 24 0.3 F.Short_io; during 2 24 0.2 F.Partial_cqe ];
      }
  in
  (* The zero-copy io_uring path (SEND_ZC, fixed-buffer file IO,
     multishot recv) under forged-early and duplicated notifs. *)
  let attacked_zc =
    C.run
      {
        C.defaults with
        datapath = C.Iouring;
        seed = 17L;
        budget = 32;
        zerocopy = true;
        schedule =
          [
            during 4 16 0.5 Hostos.Malice.Forged_early_notif;
            during 8 24 0.5 Hostos.Malice.Double_notif;
          ];
      }
  in
  (* Two io_uring runs that need the file model's rule for unconfirmed
     results (DESIGN.md §6b): a write refused after a relabelled CQE
     whose read-back shows the old block (the CI faults x malice seed),
     and a read a forged CQE result cut to a prefix. *)
  let replay token =
    match C.parse_repro token with
    | Ok spec -> C.run spec
    | Error e -> Alcotest.failf "%s: %s" token e
  in
  let refused_write =
    replay
      "io_uring:seed=71:budget=50:attacks=6=prod-overshoot;36=prod-regress;\
       11..19@0.3=cqe-wrong-user-data;43=bad-umem-offset;14=cons-regress;\
       33=prod-regress;19..25@0.3=foreign-frame;16=corrupt-packet;\
       31=bad-umem-offset;39=corrupt-packet;5..10@0.3=cqe-bogus-res;\
       36=prod-overshoot;37=oversize-len;20..24@0.3=cqe-wrong-user-data;\
       5..16@0.3=misaligned-offset;41=misaligned-offset:\
       faults=@0.05=transient-errno;@0.02=short-io;@0.02=partial-cqe;\
       @0.05=drop-wakeup;@0.01=nic-stall"
  in
  let prefix_read =
    replay
      "io_uring:seed=1:budget=32:attacks=4..20@0.3=cqe-bogus-res:\
       faults=2..24@0.3=short-io;2..24@0.2=partial-cqe"
  in
  check_golden "campaign_outcomes"
    (Format.asprintf
       "@[<v>== clean xsk ==@,%a@,== attacked xsk ==@,%a@,== faulted \
        io_uring ==@,%a@,== sharded xsk, fault pinned to shard 1 ==@,%a@,\
        == attacked io_uring, copy path ==@,%a@,== attacked io_uring, \
        zerocopy ==@,%a@,== io_uring, write refused after a relabelled \
        CQE ==@,%a@,== io_uring, read cut short by a forged CQE result \
        ==@,%a@]@."
       C.pp_outcome clean C.pp_outcome attacked C.pp_outcome faulted
       C.pp_outcome sharded C.pp_outcome attacked_uring C.pp_outcome
       attacked_zc C.pp_outcome refused_write C.pp_outcome prefix_read)

(* {1 Breaker timeline} *)

let test_breaker_timeline () =
  let clock = ref 0L in
  let b =
    Rakis.Health.create ~name:"golden" ~clock:(fun () -> !clock) ~threshold:2
      ~cooldown:50L ~probes_needed:2 ()
  in
  let buf = Buffer.create 512 in
  let line op =
    Buffer.add_string buf
      (Format.asprintf "%4Ld  %-12s %a  opens=%d closes=%d\n" !clock op
         Rakis.Health.pp_observation (Rakis.Health.observe b)
         (Rakis.Health.opens b) (Rakis.Health.closes b))
  in
  let allow op =
    let d = Rakis.Health.allow b in
    line
      (Printf.sprintf "%s>%s" op
         (match d with
         | Rakis.Health.Fast -> "fast"
         | Rakis.Health.Probe -> "probe"
         | Rakis.Health.Slow -> "slow"))
  in
  let tick n =
    clock := Int64.add !clock n;
    line "tick"
  in
  line "boot";
  allow "allow";
  Rakis.Health.record_failure b;
  line "failure";
  Rakis.Health.record_failure b;
  line "failure";
  (* open: everything routes slow until the cooldown elapses *)
  allow "allow";
  tick 60L;
  (* half-open: first allow wins the probe slot, the second is shed *)
  allow "allow";
  allow "allow";
  (* the probe is declined (a blocking recv): slot released, still probing *)
  Rakis.Health.cancel_probe b;
  line "cancel";
  allow "allow";
  Rakis.Health.record_failure b;
  line "failure";
  (* reopened by the failed probe; cool down again and close via 2 probes *)
  tick 60L;
  allow "allow";
  Rakis.Health.record_success b;
  line "success";
  allow "allow";
  Rakis.Health.record_success b;
  line "success";
  allow "allow";
  check_golden "breaker_timeline" (Buffer.contents buf)

(* {1 Repro tokens} *)

let test_repro_tokens () =
  let run datapath seed budget = { C.defaults with datapath; seed; budget } in
  let campaign label spec = (label, C.Campaign spec) in
  let cases =
    [
      campaign "fault-free single queue"
        {
          (run C.Xsk 42L 64) with
          schedule = [ at 3 Hostos.Malice.Cons_regress ];
        };
      campaign "fault plan"
        {
          (run C.Iouring 9L 128) with
          schedule =
            [
              during 2 30 0.25 Hostos.Malice.Cqe_bogus_res;
            ];
          faults =
            [
              { I.what = F.Short_io; when_ = I.Probability 0.5; shard = None };
              { I.what = F.Monitor_crash; when_ = I.At_step 11; shard = None };
            ];
        };
      campaign "multi-queue, empty plan" { (run C.Xsk 3L 32) with queues = 4 };
      campaign "multi-queue, pinned persistent fault"
        {
          (run C.Xsk 5L 32) with
          faults =
            [ { I.what = F.Drop_wakeup; when_ = I.Persistent; shard = Some 1 } ];
          queues = 2;
        };
      campaign "once-trigger with probability"
        {
          (run C.Xsk 8L 16) with
          faults =
            [ { I.what = F.Nic_stall; when_ = I.Once 0.75; shard = None } ];
        };
      campaign "zero-copy, fault-free single queue"
        {
          (run C.Iouring 23L 48) with
          schedule =
            [ at 8 Hostos.Malice.Forged_early_notif ];
          zerocopy = true;
        };
      campaign "zero-copy, multi-queue with fault plan"
        {
          (run C.Iouring 31L 32) with
          faults =
            [ { I.what = F.Short_io; when_ = I.Probability 0.25; shard = None } ];
          queues = 2;
          zerocopy = true;
        };
      campaign "overload control, fault-free single queue"
        {
          (run C.Xsk 13L 24) with
          schedule = [ at 5 Hostos.Malice.Prod_overshoot ];
          overload = true;
        };
      campaign "overload + zero-copy, multi-queue with fault plan"
        {
          (run C.Iouring 17L 32) with
          faults =
            [ { I.what = F.Drop_wakeup; when_ = I.Persistent; shard = Some 0 } ];
          queues = 2;
          zerocopy = true;
          overload = true;
        };
      campaign "lossy wire, fault-free single queue"
        {
          (run C.Xsk 101L 28) with
          schedule = [ at 4 Hostos.Malice.Replay ];
          wire = true;
        };
      campaign "overload + zero-copy + lossy wire, multi-queue"
        {
          (run C.Iouring 19L 32) with
          faults =
            [ { I.what = F.Short_io; when_ = I.Probability 0.25; shard = None } ];
          queues = 2;
          zerocopy = true;
          overload = true;
          wire = true;
        };
      ( "lossy-wire soak, three queues, tighter SLO",
        C.Soak
          {
            seed = 42L;
            steps = 2000;
            queues = 3;
            slo_p99 = 1_200_000L;
            wire = true;
          } );
    ]
  in
  let buf = Buffer.create 512 in
  List.iter
    (fun (label, t) ->
      let token = C.token_to_string t in
      (* the parse is part of the contract the golden pins down *)
      if C.token_of_string token <> Ok t then
        Alcotest.failf "token %S does not parse back to its spec" token;
      Buffer.add_string buf (Printf.sprintf "%s\n  %s\n" label token))
    cases;
  check_golden "repro_tokens" (Buffer.contents buf)

(* {1 Zero-copy dropped-notif failure}

   The one attack the campaign never draws from the soup because it
   fails deterministically: a withheld notif strands its frame in
   [Registered] forever, so the run ends with [zc_leaks > 0] and
   {!C.failed} trips even though no integrity violation fired
   (docs/zerocopy.md, "dropped notif").  The golden pins the whole
   failure artifact — outcome, shrunk minimal schedule, and the
   ":zc"-suffixed repro token. *)

let test_zc_dropped_notif_failure () =
  let schedule =
    [
      (* redundant decoy the shrinker must discard *)
      at 2 Hostos.Malice.Prod_overshoot;
      at 7 Hostos.Malice.Dropped_notif;
    ]
  in
  let o =
    C.run
      {
        C.defaults with
        datapath = C.Iouring;
        seed = 13L;
        budget = 32;
        zerocopy = true;
        schedule;
      }
  in
  Alcotest.(check bool) "dropped notif fails the campaign" true (C.failed o);
  Alcotest.(check bool) "leak footprint, not integrity" true (o.C.zc_leaks > 0);
  let s = C.shrink_failure o in
  let minimal =
    C.run
      { o.C.spec with schedule = s.C.shrunk_schedule; faults = s.C.shrunk_plan }
  in
  let token = C.(token_to_string (Campaign minimal.spec)) in
  Alcotest.(check bool)
    (Printf.sprintf "token %S carries the zc flag" token)
    true
    (Filename.check_suffix token ":zc");
  check_golden "zc_dropped_notif"
    (Format.asprintf
       "@[<v>== zero-copy io_uring campaign, dropped notif ==@,\
        %a@,\
        == shrunk: %d -> %d schedule entries in %d replays ==@,\
        %a@,\
        repro: %s@]@."
       C.pp_outcome o s.C.schedule_original
       (List.length s.C.shrunk_schedule)
       s.C.shrink_tests C.pp_outcome minimal token)

(* {1 Soak outcome}

   A small overload chaos soak (flash crowd × rolling fault plan ×
   malice soup, DESIGN.md §15) is deterministic in (seed, steps,
   queues); the golden pins the entire rendered outcome — the
   accounting identity, the latency summary, the goodput windows and
   the ["soak:seed=<seed>:steps=<steps>"] repro line — so any drift in the
   soak driver, the overload controller or the renderer shows up as a
   byte diff. *)

let test_soak_outcome () =
  let o = C.soak { C.soak_defaults with seed = 42L; steps = 2000 } in
  Alcotest.(check bool) "small soak passes its gates" false (C.soak_failed o);
  check_golden "soak_outcome" (Format.asprintf "%a@." C.pp_soak_outcome o)

(* {1 Explorer report} *)

let test_explore_report () =
  let report =
    Tm.Explore.explore
      ~config:{ Tm.Explore.default_config with shards = 1 }
      ~depth:4 ()
  in
  check_golden "explore_report"
    (Format.asprintf "%a@." Tm.Explore.pp_report report)

let suite =
  [
    Alcotest.test_case "golden: campaign outcomes" `Quick
      test_campaign_outcomes;
    Alcotest.test_case "golden: breaker timeline" `Quick test_breaker_timeline;
    Alcotest.test_case "golden: repro tokens" `Quick test_repro_tokens;
    Alcotest.test_case "golden: zero-copy dropped-notif failure" `Quick
      test_zc_dropped_notif_failure;
    Alcotest.test_case "golden: soak outcome" `Quick test_soak_outcome;
    Alcotest.test_case "golden: explorer report" `Quick test_explore_report;
  ]
