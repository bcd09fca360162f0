(* Tests for the environment layer: the five environments expose the
   same Api surface with the right cost/exit accounting, and the RAKIS
   environment routes each syscall to the right provider. *)

let check = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let make kind =
  let engine = Sim.Engine.create () in
  let kernel = Hostos.Kernel.create engine () in
  match Libos.Env.create kernel kind () with
  | Ok env -> (engine, kernel, env)
  | Error e -> Alcotest.fail e

let run_script engine f =
  let finished = ref false in
  Sim.Engine.spawn engine (fun () ->
      f ();
      finished := true;
      Sim.Engine.stop engine);
  Sim.Engine.run ~until:(Sim.Cycles.of_sec 30.) engine;
  if not !finished then Alcotest.fail "script did not finish (deadlock?)"

let expect label = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" label Abi.Errno.pp e

(* The same little program under every environment: file write/read
   plus a UDP echo against a native peer. *)
let exercise kind =
  let engine, kernel, env = make kind in
  let api = Libos.Env.api env in
  let peer = Libos.Hostapi.native kernel in
  let udp_ok = ref false and file_ok = ref false in
  Sim.Engine.spawn engine (fun () ->
      (* Native peer echoes one datagram on the client interface. *)
      let fd = peer.Libos.Api.udp_socket () in
      ignore (peer.Libos.Api.bind fd (Hostos.Kernel.client_ip kernel, 9100));
      match peer.Libos.Api.recvfrom fd 1024 with
      | Ok (payload, src) -> ignore (peer.Libos.Api.sendto fd payload src)
      | Error _ -> ());
  run_script engine (fun () ->
      (* Files. *)
      let fd = expect "open" (api.Libos.Api.openf ~create:true ~trunc:true "/e") in
      ignore (expect "write" (api.Libos.Api.write fd (Bytes.of_string "env!") 0 4));
      ignore (expect "lseek" (api.Libos.Api.lseek fd 0));
      let buf = Bytes.create 4 in
      ignore (expect "read" (api.Libos.Api.read fd buf 0 4));
      file_ok := Bytes.to_string buf = "env!";
      ignore (expect "close" (api.Libos.Api.close fd));
      (* UDP round trip to the native peer. *)
      let sock = api.Libos.Api.udp_socket () in
      ignore
        (expect "sendto"
           (api.Libos.Api.sendto sock (Bytes.of_string "marco")
              (Hostos.Kernel.client_ip kernel, 9100)));
      match api.Libos.Api.recvfrom sock 1024 with
      | Ok (reply, _) -> udp_ok := Bytes.to_string reply = "marco"
      | Error e -> Alcotest.failf "echo recv: %a" Abi.Errno.pp e);
  check_bool "file path works" true !file_ok;
  check_bool "udp path works" true !udp_ok;
  env

let test_native_works () = ignore (exercise Libos.Env.Native)

let test_gramine_direct_works () = ignore (exercise Libos.Env.Gramine_direct)

let test_gramine_sgx_works () = ignore (exercise Libos.Env.Gramine_sgx)

let test_rakis_direct_works () = ignore (exercise Libos.Env.Rakis_direct)

let test_rakis_sgx_works () = ignore (exercise Libos.Env.Rakis_sgx)

let test_kind_names () =
  Alcotest.(check (list string))
    "names"
    [ "native"; "rakis-direct"; "rakis-sgx"; "gramine-direct"; "gramine-sgx" ]
    (List.map Libos.Env.kind_name Libos.Env.all)

let test_gramine_counts_exits () =
  let env = exercise Libos.Env.Gramine_sgx in
  check_bool "every syscall exited" true (Libos.Env.exits env > 5)

let test_native_has_no_exits () =
  let env = exercise Libos.Env.Native in
  check "no exits" 0 (Libos.Env.exits env)

let test_rakis_data_path_exitless () =
  (* RAKIS pays exits only for boot + open/close (setup syscalls), never
     for read/write/sendto/recvfrom. *)
  let engine, kernel, env = make Libos.Env.Rakis_sgx in
  let api = Libos.Env.api env in
  let exits_before = ref 0 in
  run_script engine (fun () ->
      let fd = expect "open" (api.Libos.Api.openf ~create:true ~trunc:true "/x") in
      exits_before := Libos.Env.exits env;
      for _ = 1 to 50 do
        ignore (expect "write" (api.Libos.Api.write fd (Bytes.make 128 'z') 0 128))
      done;
      check "no exits across 50 writes" !exits_before (Libos.Env.exits env);
      ignore (api.Libos.Api.close fd));
  ignore kernel

let test_gramine_sgx_costs_more_time () =
  let run kind =
    let engine, _, env = make kind in
    let api = Libos.Env.api env in
    let elapsed = ref 0L in
    run_script engine (fun () ->
        let fd = expect "open" (api.Libos.Api.openf ~create:true ~trunc:true "/t") in
        let t0 = Sim.Engine.now engine in
        for _ = 1 to 100 do
          ignore (api.Libos.Api.write fd (Bytes.make 64 'w') 0 64)
        done;
        elapsed := Int64.sub (Sim.Engine.now engine) t0);
    !elapsed
  in
  let native = run Libos.Env.Native in
  let gramine_direct = run Libos.Env.Gramine_direct in
  let gramine_sgx = run Libos.Env.Gramine_sgx in
  check_bool "native < gramine-direct" true
    (Int64.compare native gramine_direct < 0);
  check_bool "gramine-direct < gramine-sgx" true
    (Int64.compare gramine_direct gramine_sgx < 0);
  (* The exit cost dominates: SGX mode should be several times slower. *)
  check_bool "sgx >= 3x direct" true
    (Int64.to_float gramine_sgx >= 3. *. Int64.to_float gramine_direct)

let test_rakis_tcp_via_syncproxy () =
  let engine, kernel, env = make Libos.Env.Rakis_sgx in
  let api = Libos.Env.api env in
  let peer = Libos.Hostapi.native kernel in
  (* Native TCP server on the client interface. *)
  Sim.Engine.spawn engine (fun () ->
      let l = peer.Libos.Api.tcp_socket () in
      ignore (peer.Libos.Api.bind l (Hostos.Kernel.client_ip kernel, 9200));
      ignore (peer.Libos.Api.listen l);
      match peer.Libos.Api.accept l with
      | Ok c ->
          let buf = Bytes.create 64 in
          (match peer.Libos.Api.recv c buf 0 64 with
          | Ok n -> ignore (peer.Libos.Api.send c buf 0 n)
          | Error _ -> ())
      | Error _ -> ());
  run_script engine (fun () ->
      let fd = api.Libos.Api.tcp_socket () in
      ignore
        (expect "connect"
           (api.Libos.Api.connect fd (Hostos.Kernel.client_ip kernel, 9200)));
      let exits = Libos.Env.exits env in
      ignore (expect "send" (api.Libos.Api.send fd (Bytes.of_string "tcp via uring") 0 13));
      let buf = Bytes.create 64 in
      let n = expect "recv" (api.Libos.Api.recv fd buf 0 64) in
      Alcotest.(check string) "echo" "tcp via uring" (Bytes.sub_string buf 0 n);
      check "send/recv made no exits" exits (Libos.Env.exits env))

let test_rakis_mixed_poll () =
  (* One RAKIS UDP socket + one host TCP connection in a single poll
     set: the API busy-waits across both providers (paper §4.2). *)
  let engine, kernel, env = make Libos.Env.Rakis_sgx in
  let api = Libos.Env.api env in
  let peer = Libos.Hostapi.native kernel in
  Sim.Engine.spawn engine (fun () ->
      let l = peer.Libos.Api.tcp_socket () in
      ignore (peer.Libos.Api.bind l (Hostos.Kernel.client_ip kernel, 9300));
      ignore (peer.Libos.Api.listen l);
      ignore (peer.Libos.Api.accept l));
  Sim.Engine.spawn engine (fun () ->
      (* A datagram arrives at the RAKIS socket after a delay. *)
      Sim.Engine.delay (Sim.Cycles.of_us 300.);
      let fd = peer.Libos.Api.udp_socket () in
      ignore
        (peer.Libos.Api.sendto fd (Bytes.of_string "udp wins")
           (Rakis.Config.default.ip, 9400)));
  run_script engine (fun () ->
      let udp = api.Libos.Api.udp_socket () in
      ignore (expect "bind" (api.Libos.Api.bind udp (Rakis.Config.default.ip, 9400)));
      let tcp = api.Libos.Api.tcp_socket () in
      ignore
        (expect "connect"
           (api.Libos.Api.connect tcp (Hostos.Kernel.client_ip kernel, 9300)));
      match
        api.Libos.Api.poll [ (udp, [ `In ]); (tcp, [ `In ]) ]
          ~timeout:(Some (Sim.Cycles.of_ms 50.))
      with
      | Ok [ (fd, [ `In ]) ] -> check "udp socket became ready" udp fd
      | Ok other -> Alcotest.failf "unexpected poll result (%d entries)" (List.length other)
      | Error e -> Alcotest.failf "poll: %a" Abi.Errno.pp e)

let test_rakis_spawn_gets_own_thread () =
  let engine, _, env = make Libos.Env.Rakis_sgx in
  let api = Libos.Env.api env in
  let results = ref [] in
  run_script engine (fun () ->
      for i = 1 to 3 do
        api.Libos.Api.spawn ~name:(Printf.sprintf "w%d" i) (fun api ->
            let fd =
              expect "open"
                (api.Libos.Api.openf ~create:true ~trunc:true
                   (Printf.sprintf "/t%d" i))
            in
            ignore
              (expect "write" (api.Libos.Api.write fd (Bytes.make 32 'x') 0 32));
            results := i :: !results)
      done;
      Sim.Engine.delay (Sim.Cycles.of_ms 5.));
  check "all threads ran" 3 (List.length !results)

let test_fd_misuse_rejected () =
  let engine, _, env = make Libos.Env.Rakis_sgx in
  let api = Libos.Env.api env in
  run_script engine (fun () ->
      let udp = api.Libos.Api.udp_socket () in
      (match api.Libos.Api.send udp (Bytes.of_string "x") 0 1 with
      | Error Abi.Errno.EINVAL -> ()
      | _ -> Alcotest.fail "tcp send on udp fd");
      (match api.Libos.Api.recvfrom 424242 16 with
      | Error Abi.Errno.EBADF -> ()
      | _ -> Alcotest.fail "bogus fd");
      match api.Libos.Api.listen udp with
      | Error Abi.Errno.EINVAL -> ()
      | _ -> Alcotest.fail "listen on udp fd")

let suite =
  [
    ("env: native end-to-end", `Quick, test_native_works);
    ("env: gramine-direct end-to-end", `Quick, test_gramine_direct_works);
    ("env: gramine-sgx end-to-end", `Quick, test_gramine_sgx_works);
    ("env: rakis-direct end-to-end", `Quick, test_rakis_direct_works);
    ("env: rakis-sgx end-to-end", `Quick, test_rakis_sgx_works);
    ("env: kind names", `Quick, test_kind_names);
    ("gramine: syscalls count exits", `Quick, test_gramine_counts_exits);
    ("native: no exits", `Quick, test_native_has_no_exits);
    ("rakis: exitless data path", `Quick, test_rakis_data_path_exitless);
    ("gramine: sgx time dominates", `Quick, test_gramine_sgx_costs_more_time);
    ("rakis: tcp via syncproxy without exits", `Quick,
     test_rakis_tcp_via_syncproxy);
    ("rakis: mixed-provider poll", `Quick, test_rakis_mixed_poll);
    ("rakis: spawn creates per-thread io_uring", `Quick,
     test_rakis_spawn_gets_own_thread);
    ("api: fd misuse rejected", `Quick, test_fd_misuse_rejected);
  ]

let test_gramine_exitless_works_without_exits () =
  let env = exercise Libos.Env.Gramine_sgx_exitless in
  check "no exits in exitless mode" 0 (Libos.Env.exits env)

let test_exitless_between_direct_and_sgx () =
  (* The switchless handoff costs more than direct mode but far less
     than exiting — HotCalls' headline result. *)
  let run kind =
    let engine, _, env = make kind in
    let api = Libos.Env.api env in
    let elapsed = ref 0L in
    run_script engine (fun () ->
        let fd = expect "open" (api.Libos.Api.openf ~create:true ~trunc:true "/t") in
        let t0 = Sim.Engine.now engine in
        for _ = 1 to 100 do
          ignore (api.Libos.Api.write fd (Bytes.make 64 'w') 0 64)
        done;
        elapsed := Int64.sub (Sim.Engine.now engine) t0);
    !elapsed
  in
  let direct = run Libos.Env.Gramine_direct in
  let exitless = run Libos.Env.Gramine_sgx_exitless in
  let sgx = run Libos.Env.Gramine_sgx in
  check_bool "direct < exitless" true (Int64.compare direct exitless < 0);
  check_bool "exitless < sgx" true (Int64.compare exitless sgx < 0)

(* recvfrom with a negative length must fail with EINVAL before it
   dequeues anything: the datagram already queued stays readable. *)
let recvfrom_negative_len_keeps_datagram kind =
  let engine, kernel, env = make kind in
  let api = Libos.Env.api env in
  let peer = Libos.Hostapi.native kernel in
  Sim.Engine.spawn engine (fun () ->
      let fd = peer.Libos.Api.udp_socket () in
      ignore (peer.Libos.Api.bind fd (Hostos.Kernel.client_ip kernel, 9100));
      match peer.Libos.Api.recvfrom fd 1024 with
      | Ok (payload, src) -> ignore (peer.Libos.Api.sendto fd payload src)
      | Error _ -> ());
  run_script engine (fun () ->
      let sock = api.Libos.Api.udp_socket () in
      ignore
        (expect "sendto"
           (api.Libos.Api.sendto sock (Bytes.of_string "polo")
              (Hostos.Kernel.client_ip kernel, 9100)));
      (* Let the echo arrive and queue. *)
      Sim.Engine.delay (Sim.Cycles.of_ms 10.);
      (match api.Libos.Api.recvfrom sock (-1) with
      | Error Abi.Errno.EINVAL -> ()
      | Ok _ -> Alcotest.fail "negative length accepted"
      | Error e -> Alcotest.failf "expected EINVAL, got %a" Abi.Errno.pp e);
      match api.Libos.Api.recvfrom sock 1024 with
      | Ok (reply, _) ->
          Alcotest.(check string) "datagram kept" "polo" (Bytes.to_string reply)
      | Error e -> Alcotest.failf "recv: %a" Abi.Errno.pp e)

let test_native_recvfrom_negative_len () =
  recvfrom_negative_len_keeps_datagram Libos.Env.Native

let test_rakis_recvfrom_negative_len () =
  recvfrom_negative_len_keeps_datagram Libos.Env.Rakis_sgx

(* A poll naming a closed or never-opened fd fails with EBADF at once,
   timed or untimed, in every environment: nothing to wait for. *)
let poll_bad_fd_is_ebadf kind =
  let engine, _, env = make kind in
  let api = Libos.Env.api env in
  run_script engine (fun () ->
      let expect_ebadf what specs ~timeout =
        let t0 = Sim.Engine.now engine in
        (match api.Libos.Api.poll specs ~timeout with
        | Error Abi.Errno.EBADF -> ()
        | _ -> Alcotest.failf "%s: expected EBADF" what);
        check_bool (what ^ ": at once") true
          (Int64.sub (Sim.Engine.now engine) t0 < Sim.Cycles.of_us 10.)
      in
      expect_ebadf "unknown, timed" [ (424242, [ `In ]) ]
        ~timeout:(Some (Sim.Cycles.of_ms 1.));
      let udp = api.Libos.Api.udp_socket () in
      ignore (expect "bind" (api.Libos.Api.bind udp (Rakis.Config.default.ip, 9500)));
      ignore (api.Libos.Api.close udp);
      expect_ebadf "closed, untimed" [ (udp, [ `In ]) ] ~timeout:None)

let test_native_poll_bad_fd () = poll_bad_fd_is_ebadf Libos.Env.Native

let test_rakis_poll_bad_fd () = poll_bad_fd_is_ebadf Libos.Env.Rakis_sgx

(* A timed RAKIS-side poll on an idle UDP socket waits on the process's
   own timeout, as the host kernel's does: no timer condition, closure,
   queued callback or list cell per wait.  On RAKIS sockets only it
   builds no spec list, deadline box or closure either, and its
   readiness scans allocate nothing, so what it allocates per call
   (16.1 words) is its suspensions' continuations.  Partitioning the
   specs and closing over them cost 118; a fresh timer per wait, 152. *)
let rakis_poll_words_budget = 17.5

let test_rakis_poll_timed_alloc () =
  let engine, _, env = make Libos.Env.Rakis_sgx in
  let api = Libos.Env.api env in
  let per_call = ref infinity in
  run_script engine (fun () ->
      let udp = api.Libos.Api.udp_socket () in
      ignore (expect "bind" (api.Libos.Api.bind udp (Rakis.Config.default.ip, 9600)));
      let specs = [ (udp, [ `In ]) ] and n = 2000 in
      let poll () =
        match api.Libos.Api.poll specs ~timeout:(Some 1_000L) with
        | Ok [] -> ()
        | _ -> Alcotest.fail "expected a timeout"
      in
      poll ();
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        poll ()
      done;
      per_call := (Gc.minor_words () -. w0) /. float_of_int n);
  if !per_call > rakis_poll_words_budget then
    Alcotest.failf "%.1f minor words per timed RAKIS poll, budget %.1f"
      !per_call rakis_poll_words_budget

(* A 4 KiB RAKIS file op (an lseek and a write or a read) runs through
   the SyncProxy, the io_uring FM, the host's io_uring worker and the
   Monitor.  A heap block over [Max_young_wosize] (256 words) skips the
   minor heap, so the minor-word budgets never see a per-op 4 KiB
   buffer; this test counts the major heap too.  A fresh kernel bounce
   per SQE measured 519 major words per op, and the op then allocated
   292 minor words; with one bounce per worker and an allocation-free
   enclave path it measured 0 and 74.4, and with unboxed continuations
   and native-int charges and trace stamps it measures 0 and 32.1.
   What is left is mostly suspensions' continuations and the in-flight
   record. *)
let rakis_file_major_words_budget = 8.

let rakis_file_minor_words_budget = 35.

let test_rakis_file_op_alloc () =
  let engine, _, env = make Libos.Env.Rakis_sgx in
  let api = Libos.Env.api env in
  let major = ref infinity and minor = ref infinity in
  run_script engine (fun () ->
      let fd = expect "open" (api.Libos.Api.openf ~create:true ~trunc:true "/alloc") in
      let size = 4096 and blocks = 16 and n = 1000 in
      let buf = Bytes.create size and back = Bytes.create size in
      let op i =
        let block = (i / 2) mod blocks in
        ignore (expect "lseek" (api.Libos.Api.lseek fd (block * size)));
        if i land 1 = 0 then begin
          Bytes.fill buf 0 size (Char.chr (i land 0xFF));
          if expect "write" (api.Libos.Api.write fd buf 0 size) <> size then
            Alcotest.fail "short write"
        end
        else if
          expect "read" (api.Libos.Api.read fd back 0 size) <> size
          || not (Bytes.equal back buf)
        then Alcotest.failf "op %d: read differs from the last write" i
      in
      for i = 0 to (2 * blocks) - 1 do
        op i
      done;
      (* Major words from [Gc.counters], not [Gc.quick_stat]: on OCaml
         5.1 the latter counts only up to the last minor collection;
         minor words from [Gc.minor_words], which [Gc.counters] lags. *)
      let _, _, major0 = Gc.counters () and minor0 = Gc.minor_words () in
      for i = 0 to n - 1 do
        op i
      done;
      let _, _, major1 = Gc.counters () and minor1 = Gc.minor_words () in
      major := (major1 -. major0) /. float_of_int n;
      minor := (minor1 -. minor0) /. float_of_int n);
  if !major > rakis_file_major_words_budget then
    Alcotest.failf "%.1f major words per 4 KiB RAKIS file op, budget %.1f"
      !major rakis_file_major_words_budget;
  if !minor > rakis_file_minor_words_budget then
    Alcotest.failf "%.1f minor words per 4 KiB RAKIS file op, budget %.1f"
      !minor rakis_file_minor_words_budget

(* An io_uring worker bounces the ops it runs inline through one buffer
   of its own.  Two RAKIS threads, each with its own ring and worker,
   write and read 4 KiB on their own files.  They issue each op at the
   same instant, so the Monitor enters both rings in one scan and one
   worker sits suspended in the VFS charge with a read's bytes in its
   bounce while the other worker runs: every read must still return its
   own thread's last write.  (One buffer for the whole kernel fails
   this.) *)
let test_rakis_bounce_per_worker () =
  let engine, _, env = make Libos.Env.Rakis_sgx in
  let api = Libos.Env.api env in
  let size = 4096 and rounds = 20 and step = 20_000 in
  let checked = ref 0 in
  let thread id (api : Libos.Api.t) =
    let fd =
      expect "open"
        (api.openf ~create:true ~trunc:true (Printf.sprintf "/bounce%d" id))
    in
    let buf = Bytes.create size and back = Bytes.create size in
    let in_step () =
      let now = Sim.Engine.clock engine in
      Sim.Engine.delay (Int64.of_int (step - (now mod step)))
    in
    for i = 0 to rounds - 1 do
      Bytes.fill buf 0 size (Char.chr ((64 * id) + i));
      ignore (expect "lseek" (api.lseek fd 0));
      in_step ();
      check "write" size (expect "write" (api.write fd buf 0 size));
      ignore (expect "lseek" (api.lseek fd 0));
      in_step ();
      check "read" size (expect "read" (api.read fd back 0 size));
      if not (Bytes.equal back buf) then
        Alcotest.failf "thread %d, round %d: read differs from its last write"
          id i;
      incr checked
    done
  in
  run_script engine (fun () ->
      api.Libos.Api.spawn ~name:"a" (thread 1);
      api.Libos.Api.spawn ~name:"b" (thread 2);
      while !checked < 2 * rounds do
        Sim.Engine.delay (Sim.Cycles.of_us 10.)
      done);
  check "reads checked" (2 * rounds) !checked

(* Back-to-back io_uring TCP sends go through the same worker bounce:
   each must arrive at the peer intact, in order. *)
let test_rakis_tcp_back_to_back_sends () =
  let engine, kernel, env = make Libos.Env.Rakis_sgx in
  let api = Libos.Env.api env in
  let peer = Libos.Hostapi.native kernel in
  let size = 1000 and sends = 8 in
  let received = Buffer.create (size * sends) in
  Sim.Engine.spawn engine (fun () ->
      let l = peer.Libos.Api.tcp_socket () in
      ignore (peer.Libos.Api.bind l (Hostos.Kernel.client_ip kernel, 9700));
      ignore (peer.Libos.Api.listen l);
      match peer.Libos.Api.accept l with
      | Ok c ->
          let buf = Bytes.create size in
          let rec drain () =
            if Buffer.length received < size * sends then
              match peer.Libos.Api.recv c buf 0 size with
              | Ok n when n > 0 ->
                  Buffer.add_subbytes received buf 0 n;
                  drain ()
              | _ -> ()
          in
          drain ()
      | Error _ -> ());
  run_script engine (fun () ->
      let fd = api.Libos.Api.tcp_socket () in
      ignore
        (expect "connect"
           (api.Libos.Api.connect fd (Hostos.Kernel.client_ip kernel, 9700)));
      for i = 0 to sends - 1 do
        let msg = Bytes.make size (Char.chr (Char.code 'a' + i)) in
        check "sent" size (expect "send" (api.Libos.Api.send fd msg 0 size))
      done;
      let rec settle n =
        if Buffer.length received < size * sends && n > 0 then begin
          Sim.Engine.delay (Sim.Cycles.of_us 10.);
          settle (n - 1)
        end
      in
      settle 1000);
  Alcotest.(check string)
    "every send intact, in order"
    (String.concat ""
       (List.init sends (fun i -> String.make size (Char.chr (Char.code 'a' + i)))))
    (Buffer.contents received)

let suite =
  suite
  @ [
      ("gramine exitless: zero exits", `Quick,
       test_gramine_exitless_works_without_exits);
      ("gramine exitless: between direct and sgx", `Quick,
       test_exitless_between_direct_and_sgx);
      ("native: recvfrom negative length is EINVAL, datagram kept", `Quick,
       test_native_recvfrom_negative_len);
      ("rakis: recvfrom negative length is EINVAL, datagram kept", `Quick,
       test_rakis_recvfrom_negative_len);
      ("native: poll on a bad fd is EBADF at once", `Quick,
       test_native_poll_bad_fd);
      ("rakis: poll on a bad fd is EBADF at once", `Quick,
       test_rakis_poll_bad_fd);
      ("rakis: a timed poll allocates no timer", `Quick,
       test_rakis_poll_timed_alloc);
      ("rakis: a file op allocates nothing in the major heap", `Quick,
       test_rakis_file_op_alloc);
      ("rakis: each io_uring worker bounces through its own buffer", `Quick,
       test_rakis_bounce_per_worker);
      ("rakis: back-to-back io_uring sends arrive intact", `Quick,
       test_rakis_tcp_back_to_back_sends);
    ]
