type inode = { path : string; buf : Fbuf.t }

type t = { files : (string, inode) Hashtbl.t }

let create () = { files = Hashtbl.create 16 }

let open_file t ?(create = false) ?(trunc = false) path =
  match Hashtbl.find_opt t.files path with
  | Some inode ->
      if trunc then Fbuf.truncate inode.buf 0;
      Ok inode
  | None ->
      if not create then Error Abi.Errno.ENOENT
      else begin
        let inode = { path; buf = Fbuf.create () } in
        Hashtbl.add t.files path inode;
        Ok inode
      end

let size inode = Fbuf.length inode.buf

let charge_io _t nbytes =
  Sim.Engine.delay_cycles
    (Int64.to_int Sgx.Params.vfs_per_op
    + int_of_float (float_of_int nbytes *. Sgx.Params.storage_cycles_per_byte))

let read t inode ~off dst doff len =
  let n = Fbuf.read inode.buf ~off dst doff len in
  charge_io t n;
  n

let write t inode ~off src soff len =
  let n = Fbuf.write inode.buf ~off src soff len in
  charge_io t n;
  n

let unlink t path =
  if Hashtbl.mem t.files path then begin
    Hashtbl.remove t.files path;
    Ok ()
  end
  else Error Abi.Errno.ENOENT

let file_count t = Hashtbl.length t.files

let path inode = inode.path
