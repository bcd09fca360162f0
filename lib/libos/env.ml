type kind =
  | Native
  | Gramine_direct
  | Gramine_sgx
  | Gramine_sgx_exitless
  | Rakis_direct
  | Rakis_sgx

type t = {
  kind : kind;
  api : Api.t;
  enclave : Sgx.Enclave.t option;
  runtime : Rakis.Runtime.t option;
}

let all = [ Native; Rakis_direct; Rakis_sgx; Gramine_direct; Gramine_sgx ]

let kind_name = function
  | Native -> "native"
  | Gramine_direct -> "gramine-direct"
  | Gramine_sgx -> "gramine-sgx"
  | Gramine_sgx_exitless -> "gramine-sgx-exitless"
  | Rakis_direct -> "rakis-direct"
  | Rakis_sgx -> "rakis-sgx"

let create kernel kind ?rakis_config () =
  match kind with
  | Native ->
      Ok { kind; api = Hostapi.native kernel; enclave = None; runtime = None }
  | Gramine_direct | Gramine_sgx | Gramine_sgx_exitless ->
      let api, enclave =
        Hostapi.gramine kernel
          ~exitless:(kind = Gramine_sgx_exitless)
          ~sgx:(kind <> Gramine_direct)
      in
      Ok { kind; api; enclave = Some enclave; runtime = None }
  | Rakis_direct | Rakis_sgx -> (
      match
        Rakis_env.create kernel ~sgx:(kind = Rakis_sgx) ?config:rakis_config ()
      with
      | Error e -> Error e
      | Ok (api, runtime) ->
          Ok
            {
              kind;
              api;
              enclave = Some (Rakis.Runtime.enclave runtime);
              runtime = Some runtime;
            })

let kind t = t.kind

let api t = t.api

let runtime t = t.runtime

let exits t =
  match t.enclave with None -> 0 | Some e -> Sgx.Enclave.exits e
