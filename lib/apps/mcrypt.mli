(** MCrypt file-encryption benchmark (paper §6.2, Figure 5(c)).

    Encrypt a file by reading blocks of a given size, running a block
    cipher over them and writing the ciphertext to a second file.  The
    cipher is a real (if toy) ARX transform charged at a calibrated
    per-byte cost, making the workload compute-dominated like the
    paper's Rijndael run — which is why all five environments land
    within ~10 % of each other there.  The paper encrypts 1 GB; the
    default sweep scales to 64 MB (time is linear in file size). *)

type result = {
  env : string;
  file_size : int;
  block_size : int;
  duration : Sim.Engine.time;
  seconds : float;
  checksum : int;  (** of the ciphertext, so tests can verify fidelity *)
}

val encrypt_block : key:int64 -> Bytes.t -> unit
(** In-place ARX encryption of a block (exposed for tests: decrypting
    with the same keystream restores the plaintext). *)

val run : Harness.t -> file_size:int -> block_size:int -> result

val pp_result : Format.formatter -> result -> unit
