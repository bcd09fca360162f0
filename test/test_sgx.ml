(* Tests for the SGX trust-boundary and cost model — the accounting
   that produces Figure 2 and every SGX-vs-direct gap. *)

let check = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check64 = Alcotest.(check int64)

let fixture ~sgx =
  let engine = Sim.Engine.create () in
  (engine, Sgx.Enclave.create engine ~sgx ~name:"test")

let elapsed engine f =
  let out = ref 0L in
  Sim.Engine.spawn engine (fun () ->
      let t0 = Sim.Engine.now engine in
      f ();
      out := Int64.sub (Sim.Engine.now engine) t0);
  Sim.Engine.run engine;
  !out

let test_ocall_costs_in_sgx_mode () =
  let engine, enclave = fixture ~sgx:true in
  let dt = elapsed engine (fun () -> Sgx.Enclave.ocall enclave) in
  check64 "one exit" !Sgx.Params.enclave_exit_cycles dt

let test_ocall_free_in_direct_mode () =
  let engine, enclave = fixture ~sgx:false in
  let dt = elapsed engine (fun () -> Sgx.Enclave.ocall enclave) in
  check64 "no cost" 0L dt

let test_ocall_counted_in_both_modes () =
  List.iter
    (fun sgx ->
      let _, enclave = fixture ~sgx in
      Sgx.Enclave.ocall enclave;
      Sgx.Enclave.ocall enclave;
      check "exit counter" 2 (Sgx.Enclave.exits enclave))
    [ true; false ]

let test_boundary_copy_surcharge () =
  let len = 100_000 in
  let cost mode crossing =
    let _, enclave = fixture ~sgx:mode in
    Sgx.Enclave.copy_cycles enclave ~crossing len
  in
  check_bool "crossing costs more in sgx" true (cost true true > cost true false);
  check "no surcharge in direct mode" (cost false false) (cost false true);
  check "plain copy same in both" (cost true false) (cost false false)

let test_copy_cost_scales_linearly () =
  let _, enclave = fixture ~sgx:true in
  let c n = float_of_int (Sgx.Enclave.copy_cycles enclave ~crossing:true n) in
  let ratio = c 1_000_000 /. c 100_000 in
  check_bool "roughly 10x for 10x bytes" true (ratio > 9.5 && ratio < 10.5)

let test_boundary_bytes_accounted () =
  let engine, enclave = fixture ~sgx:true in
  ignore
    (elapsed engine (fun () ->
         Sgx.Enclave.charge_copy enclave ~crossing:true 1234;
         Sgx.Enclave.charge_copy enclave ~crossing:false 9999));
  check "only crossing bytes counted" 1234
    (Obs.Metrics.get_counter (Sim.Engine.stats engine) "sgx.boundary_bytes")

(* The exit counter is a handle bound at creation: an OCALL looks up no
   key and allocates nothing. *)
let test_ocall_allocates_nothing () =
  let _, enclave = fixture ~sgx:true in
  Sgx.Enclave.ocall enclave;
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    Sgx.Enclave.ocall enclave
  done;
  let words = Gc.minor_words () -. w0 in
  check "counted" (n + 1) (Sgx.Enclave.exits enclave);
  Alcotest.(check (float 0.)) "no minor words" 0. words

let test_regions_have_right_trust () =
  let _, enclave = fixture ~sgx:true in
  let t = Sgx.Enclave.trusted_region enclave ~size:64 ~name:"t" in
  let u = Sgx.Enclave.untrusted_region enclave ~size:64 ~name:"u" in
  check_bool "trusted" true (Mem.Region.is_trusted t);
  check_bool "untrusted" false (Mem.Region.is_trusted u)

let test_exit_cost_dominates_syscall () =
  (* The premise of the whole paper: one exit is an order of magnitude
     above a bare syscall. *)
  check_bool "8200 vs 500" true
    (Int64.to_float !Sgx.Params.enclave_exit_cycles
    > 10. *. Int64.to_float Sgx.Params.syscall_cycles)

let test_params_sane () =
  check_bool "boundary surcharge positive" true
    (Sgx.Params.boundary_copy_extra_per_byte > 0.);
  check_bool "umem frame holds an MTU frame" true
    (Sgx.Params.umem_frame_size >= 1500 + Packet.Frame.frame_overhead - 8);
  check_bool "frame divides umem" true
    (Sgx.Params.default_umem_size mod Sgx.Params.umem_frame_size = 0);
  check_bool "wire rate matches link speed" true
    (abs_float (Sgx.Params.wire_cycles_per_byte -. 0.768) < 1e-9)

let test_charge_advances_time () =
  let engine, enclave = fixture ~sgx:true in
  let dt = elapsed engine (fun () -> Sgx.Enclave.charge enclave 12345L) in
  check64 "charged" 12345L dt

let test_charge_zero_or_negative_is_free () =
  let engine, enclave = fixture ~sgx:true in
  let dt =
    elapsed engine (fun () ->
        Sgx.Enclave.charge enclave 0L;
        Sgx.Enclave.charge enclave (-5L))
  in
  check64 "no time" 0L dt

let suite =
  [
    ("enclave: ocall costs in sgx mode", `Quick, test_ocall_costs_in_sgx_mode);
    ("enclave: ocall free in direct mode", `Quick,
     test_ocall_free_in_direct_mode);
    ("enclave: ocalls counted in both modes", `Quick,
     test_ocall_counted_in_both_modes);
    ("enclave: boundary copy surcharge", `Quick, test_boundary_copy_surcharge);
    ("enclave: copy cost linear in bytes", `Quick,
     test_copy_cost_scales_linearly);
    ("enclave: boundary bytes accounted", `Quick, test_boundary_bytes_accounted);
    ("enclave: region trust kinds", `Quick, test_regions_have_right_trust);
    ("params: exit dominates syscall", `Quick, test_exit_cost_dominates_syscall);
    ("params: sanity", `Quick, test_params_sane);
    ("enclave: charge advances time", `Quick, test_charge_advances_time);
    ("enclave: non-positive charge free", `Quick,
     test_charge_zero_or_negative_is_free);
    ("enclave: ocall allocates nothing", `Quick, test_ocall_allocates_nothing);
  ]
