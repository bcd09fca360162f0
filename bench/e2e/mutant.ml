(* A known-bad [Libos.Api.t]: every payload or buffer the wrapped side
   receives comes back with one byte flipped.  The run command installs
   it (with [--mutant flip-reply]) on the side whose replies a
   workload checks, to prove the checks can fail. *)

let flip b off len =
  if len > 0 then begin
    let i = off + (len / 2) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff))
  end

let rec flip_replies (api : Libos.Api.t) =
  {
    api with
    Libos.Api.recvfrom =
      (fun fd max ->
        match api.Libos.Api.recvfrom fd max with
        | Ok (payload, src) ->
            flip payload 0 (Bytes.length payload);
            Ok (payload, src)
        | Error _ as e -> e);
    read =
      (fun fd buf off len ->
        match api.Libos.Api.read fd buf off len with
        | Ok n ->
            flip buf off n;
            Ok n
        | Error _ as e -> e);
    spawn =
      (fun ~name body ->
        api.Libos.Api.spawn ~name (fun child -> body (flip_replies child)));
  }

let apply ~mutant api = if mutant then flip_replies api else api
