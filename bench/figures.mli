(** Reproduction harness for every table and figure in the paper's
    evaluation (§6).  Each function runs the relevant workload across
    the five environments, prints the same rows/series the paper
    reports, and returns the data for the claims check. *)

type series = (string * (string * float) list) list
(** [(env, [(x-label, value); ...])] — one line per environment. *)

val fig2 : unit -> (string * int) list
(** Figure 2: enclave-exit counts for iperf3 under Gramine vs RAKIS,
    with HelloWorld as the baseline. *)

val table1 : unit -> unit
(** Table 1: the ring inventory, checked against a live runtime. *)

val table2 : unit -> unit
(** Table 2: drive every attack class against RAKIS and report each
    check firing with its fail action. *)

val fig4a : unit -> series
(** Figure 4(a): iperf3 UDP goodput (Gbps) vs packet size. *)

val fig4b : unit -> series
(** Figure 4(b): curl download time (s) vs file size. *)

val fig4c : unit -> series
(** Figure 4(c): memcached throughput (kops/s) vs server threads. *)

val fig5a : unit -> series
(** Figure 5(a): fstime write throughput (MB/s) vs block size. *)

val fig5b : unit -> series
(** Figure 5(b): redis throughput (kops/s, normalized to native in the
    paper; we print kops/s) per command. *)

val fig5c : unit -> series
(** Figure 5(c): mcrypt encryption time (s) vs read block size. *)

val claims :
  ?fig4a:series ->
  ?fig4b:series ->
  ?fig4c:series ->
  ?fig5a:series ->
  ?fig5b:series ->
  ?fig5c:series ->
  unit ->
  bool
(** Artifact claims C1-C6: compare measured ratios against the paper's
    and print a verdict table.  Missing series are (re)measured.
    Returns true when every claim's direction holds. *)

val ablation : unit -> unit
(** Design-choice ablations DESIGN.md calls out:
    - the UDP/IP stack's lock discipline (paper §4.2: LWIP's global lock
      vs RAKIS's finer locks) under multi-threaded memcached;
    - XSK count vs throughput (paper §4.1: one FM thread per XSK);
    - certified-ring checks on the hot path (RAKIS) vs no FIOKPs at all
      (Gramine) at equal exit budgets — i.e. what the Table 2 checks
      cost end-to-end. *)

val harness :
  ?rakis_config:Rakis.Config.t ->
  ?nic_queues:int ->
  Libos.Env.kind ->
  Apps.Harness.t
(** Boot [kind] on a fresh machine; a RAKIS boot becomes the one
    {!dump_metrics} prints.  Raises [Failure] naming [kind] when the
    boot fails. *)

val dump_metrics : unit -> unit
(** Print the Obs metrics registry of the most recent RAKIS harness any
    figure booted ([main.exe --metrics <target>]).  A no-op notice when
    the target ran no RAKIS environment. *)

val sensitivity : unit -> unit
(** The robustness check EXPERIMENTS.md asserts: sweep the two most
    influential calibration constants — the enclave-exit cost and the
    in-enclave stack's per-packet cost — and show that the claim
    directions (who wins) are unchanged even when the factors move. *)
