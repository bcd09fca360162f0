type t = {
  layout : Layout.t;
  mutable cached_prod : int;
  mutable cached_cons : int; (* consumer-side cache: plain consumer *)
  mutable cached_cons_plus : int;
      (* producer-side cache, libxdp convention: consumer + size *)
}

let create layout =
  {
    layout;
    cached_prod = 0;
    cached_cons = 0;
    cached_cons_plus = U32.of_int layout.Layout.size;
  }

(* xsk_prod_nb_free: free_entries = cached_cons - cached_prod where
   cached_cons carries "+ size" baked in; when the cached view cannot
   satisfy the request, the shared consumer is re-read — and the result
   is never validated against the ring size.  A hostile consumer index
   ahead of the producer therefore yields free_entries > size.
   (xdp-tools headers/xdp/xsk.h) *)
let prod_nb_free t ~wanted =
  let free = U32.sub t.cached_cons_plus t.cached_prod in
  if free >= wanted then free
  else begin
    t.cached_cons_plus <-
      U32.add (Layout.read_cons t.layout) t.layout.Layout.size;
    U32.sub t.cached_cons_plus t.cached_prod
  end

let produce_batch t ~count ~write =
  let n = min count (prod_nb_free t ~wanted:count) in
  if n <= 0 then 0
  else begin
    for i = 0 to n - 1 do
      write ~slot_off:(Layout.slot_off t.layout (U32.add t.cached_prod i)) i
    done;
    t.cached_prod <- U32.add t.cached_prod n;
    Layout.write_prod t.layout t.cached_prod;
    n
  end

let available t =
  t.cached_prod <- Layout.read_prod t.layout;
  U32.distance ~ahead:t.cached_prod ~behind:t.cached_cons

let consume t ~read =
  if available t <= 0 then None
  else begin
    let v = read ~slot_off:(Layout.slot_off t.layout t.cached_cons) in
    t.cached_cons <- U32.succ t.cached_cons;
    Layout.write_cons t.layout t.cached_cons;
    Some v
  end

let cached_prod t = t.cached_prod

let cached_cons t = t.cached_cons
