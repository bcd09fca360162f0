(* file4k: closed-loop 4 KiB file IO through io_uring.

   One enclave thread issues [Libos.Api] [lseek] + [read] / [write] on a
   16 MiB file, at seeded random 4 KiB blocks, two reads per write on
   average.  Every call goes through the thread's io_uring FastPath
   Module and SyncProxy to the host kernel's io_uring and VFS, with the
   Monitor's forced enters.  It bypasses XSK and the netstack, so it is
   the control for UDP-side changes.  Warm-up writes the whole file.

   Generated inputs: the block and the read/write choice of every
   operation, and 64 block patterns.  The simulated VFS charges by the
   byte, not by the offset, and a read costs what a write does, so the
   simulated results are the same for every seed.  Bytes 0-15 of a
   block carry its number and version.  Check: every read returns
   exactly the last write to that block. *)

let name = "file4k"

let payload_size = 4096

let file_blocks = 4096

let default_ops = 125_000

let default_rounds = 8

let topology = { Round.shards = 1; xsks = 1; nic_queues = 1 }

let patterns_n = 64

type inputs = {
  ops : int;
  blocks : int array;
  writes : Bytes.t;  (** ['w'] or ['r'] per operation *)
  patterns : Bytes.t array;
}

let generate ~seed ~ops =
  let rng = Sim.Rng.create ~seed:(Int64.of_int seed) in
  let patterns =
    Array.init patterns_n (fun _ ->
        let b = Bytes.create payload_size in
        Sim.Rng.fill_bytes rng b;
        b)
  in
  let blocks = Array.init ops (fun _ -> Sim.Rng.int rng file_blocks) in
  let writes = Bytes.init ops (fun _ -> if Sim.Rng.int rng 3 = 0 then 'w' else 'r') in
  { ops; blocks; writes; patterns }

let digest i =
  let b = Buffer.create (i.ops * 5) in
  Array.iter (fun x -> Buffer.add_int32_le b (Int32.of_int x)) i.blocks;
  Buffer.add_bytes b i.writes;
  Array.iter (Buffer.add_bytes b) i.patterns;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pattern_of inputs ~block ~version =
  inputs.patterns.(((block * 31) + version) land (patterns_n - 1))

let stamp buf inputs ~block ~version =
  Bytes.blit (pattern_of inputs ~block ~version) 0 buf 0 payload_size;
  Bytes.set_int64_le buf 0 (Int64.of_int block);
  Bytes.set_int64_le buf 8 (Int64.of_int version)

let thread r ~spans ~(api : Libos.Api.t) inputs =
  let api, c = Spans.wrap_opt spans ~side:Spans.enclave api in
  let fd =
    match api.openf ~create:true ~trunc:false "/bench/file4k.dat" with
    | Ok fd -> fd
    | Error e -> failwith (Format.asprintf "file4k open: %a" Abi.Errno.pp e)
  in
  let versions = Array.make file_blocks 0 in
  let buf = Bytes.create payload_size and expected = Bytes.create payload_size in
  let io what f =
    match f () with
    | Ok n when n = payload_size -> true
    | Ok n ->
        Round.violation r (Printf.sprintf "file4k: short %s (%d bytes)" what n);
        false
    | Error e ->
        Round.violation r (Format.asprintf "file4k: %s failed: %a" what Abi.Errno.pp e);
        false
  in
  let seek block =
    match api.lseek fd (block * payload_size) with
    | Ok _ -> true
    | Error e ->
        Round.violation r (Format.asprintf "file4k: lseek failed: %a" Abi.Errno.pp e);
        false
  in
  (* Fill: every block is written once before any op. *)
  for block = 0 to file_blocks - 1 do
    stamp buf inputs ~block ~version:0;
    ignore (seek block && io "fill write" (fun () -> api.write fd buf 0 payload_size))
  done;
  for op = 0 to inputs.ops - 1 do
    let block = inputs.blocks.(op) in
    let start = Libos.Api.now api in
    Spans.begin_op spans c ~req:op ~now:start;
    let ok =
      seek block
      &&
      if Bytes.get inputs.writes op = 'w' then begin
        let version = versions.(block) + 1 in
        stamp buf inputs ~block ~version;
        let ok = io "write" (fun () -> api.write fd buf 0 payload_size) in
        if ok then versions.(block) <- version;
        ok
      end
      else
        io "read" (fun () -> api.read fd buf 0 payload_size)
        &&
        (stamp expected inputs ~block ~version:versions.(block);
         Bytes.equal buf expected
         ||
         (Round.violation r "file4k: read differs from the last write";
          false))
    in
    let now = Libos.Api.now api in
    if ok then begin
      Spans.end_op spans c ~now;
      Round.complete r ~latency:(Int64.sub now start)
    end
    else Round.fail r
  done

let round ?spans ?(mutant = false) inputs =
  let r = Round.boot topology ~ops:inputs.ops in
  let api = Apps.Harness.api r.Round.h in
  api.Libos.Api.spawn ~name:"file4k" (fun api ->
      thread r ~spans ~api:(Mutant.apply ~mutant api) inputs);
  Round.conclude ~traced:(spans <> None) r
