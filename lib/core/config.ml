type t = {
  ip : Packet.Addr.Ip.t;
  mac : Packet.Addr.Mac.t;
  num_xsks : int;
  num_queues : int;
  ring_size : int;
  umem_size : int;
  uring_entries : int;
  max_io_size : int;
  locking : Netstack.Stack.locking;
  use_sqpoll : bool;
  max_pending : int;
  zerocopy : bool;
  overload : bool;
}

let default =
  {
    ip = Packet.Addr.Ip.of_repr "10.0.0.1";
    mac = Packet.Addr.Mac.of_repr "02:00:00:00:00:01";
    num_xsks = 1;
    num_queues = 1;
    ring_size = Sgx.Params.default_ring_size;
    umem_size = Sgx.Params.default_umem_size;
    uring_entries = 256;
    max_io_size = 1 lsl 20;
    locking = `Fine;
    use_sqpoll = false;
    max_pending = 256;
    zerocopy = false;
    overload = false;
  }

let is_pow2 n = n > 0 && n land (n - 1) = 0

let validate t =
  let frame = Sgx.Params.umem_frame_size in
  if t.num_xsks <= 0 then Error "num_xsks must be positive"
  else if t.num_queues <= 0 then Error "num_queues must be positive"
  else if not (is_pow2 t.ring_size) then Error "ring_size must be a power of 2"
  else if not (is_pow2 t.uring_entries) then
    Error "uring_entries must be a power of 2"
  else if t.umem_size mod frame <> 0 then
    Error "umem_size must be a whole number of frames"
  else if t.umem_size / frame < 2 * t.ring_size then
    Error "umem must hold at least 2*ring_size frames"
  else if t.max_io_size <= 0 then Error "max_io_size must be positive"
  else if t.max_pending <= 0 then Error "max_pending must be positive"
  else Ok ()
