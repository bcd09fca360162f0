let fold_carry sum =
  let rec go s = if s > 0xffff then go ((s land 0xffff) + (s lsr 16)) else s in
  go sum

let ones_sum_scalar ?(init = 0) b off len =
  let sum = ref init in
  let i = ref off in
  let stop = off + len in
  while !i + 1 < stop do
    sum := !sum + Bytes.get_uint16_be b !i;
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Bytes.get_uint8 b !i lsl 8);
  fold_carry !sum

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"

(* One's-complement arithmetic is mod 0xffff and 2^16 = 1 (mod 0xffff),
   so a 64-bit word contributes the same as its two 32-bit halves, and
   those the same as their 16-bit fields.  The halves are summed as
   unboxed [int64]s; each is below 2^32, so a 64-byte block adds under
   2^35 to an accumulator and the two accumulators' sum fits a native
   int below 2^26 blocks (4 GiB). *)
let[@inline] halves w =
  Int64.add (Int64.logand w 0xFFFF_FFFFL) (Int64.shift_right_logical w 32)

let ( ++ ) = Int64.add

(* [fold_carry] without the loop: four end-around-carry steps bring any
   non-negative int to 16 bits, and each keeps the sum's residue and
   whether it is zero, so the result is [fold_carry]'s. *)
let[@inline] fold s =
  let s = (s land 0xFFFF_FFFF) + (s lsr 32) in
  let s = (s land 0xffff) + (s lsr 16) in
  let s = (s land 0xffff) + (s lsr 16) in
  (s land 0xffff) + (s lsr 16)

(* Native-endian loads, summed as they come (RFC 1071 §2(B)): on a
   little-endian host every 16-bit field is read byte-swapped, and
   swapping is multiplication by 256 mod 0xffff, so the folded sum is
   the byte-swap of the big-endian one — zero only when every byte is.
   One swap at the end puts it back; [init] is added after it.  The
   range is checked once, so the loads go unchecked; two accumulators
   over 64-byte blocks keep two add chains in flight, and a tail under
   8 bytes takes at most one 32-bit, one 16-bit and one byte load. *)
let ones_sum ?(init = 0) b off len =
  if len <= 0 then fold_carry init
  else begin
    if off < 0 || off > Bytes.length b - len then
      invalid_arg "Checksum.ones_sum: range outside the buffer";
    let stop = off + len in
    let a0 = ref 0L and a1 = ref 0L in
    let i = ref off in
    while stop - !i >= 64 do
      let j = !i in
      a0 :=
        !a0
        ++ (halves (get64u b j) ++ halves (get64u b (j + 8)))
        ++ (halves (get64u b (j + 16)) ++ halves (get64u b (j + 24)));
      a1 :=
        !a1
        ++ (halves (get64u b (j + 32)) ++ halves (get64u b (j + 40)))
        ++ (halves (get64u b (j + 48)) ++ halves (get64u b (j + 56)));
      i := j + 64
    done;
    while stop - !i >= 8 do
      a0 := !a0 ++ halves (get64u b !i);
      i := !i + 8
    done;
    let sum = ref (Int64.to_int (!a0 ++ !a1)) in
    if stop - !i >= 4 then begin
      sum := !sum + (Int32.to_int (get32u b !i) land 0xFFFF_FFFF);
      i := !i + 4
    end;
    if stop - !i >= 2 then begin
      sum := !sum + get16u b !i;
      i := !i + 2
    end;
    if !i < stop then begin
      let last = Char.code (Bytes.unsafe_get b !i) in
      sum := !sum + if Sys.big_endian then last lsl 8 else last
    end;
    let s = fold !sum in
    let s = if Sys.big_endian then s else ((s land 0xff) lsl 8) lor (s lsr 8) in
    fold (init + s)
  end

let finish sum = lnot (fold_carry sum) land 0xffff

let compute b off len = finish (ones_sum b off len)

let valid b off len = fold_carry (ones_sum b off len) = 0xffff

let pseudo_header_sum ~src ~dst ~proto ~len =
  fold_carry
    ((src lsr 16) + (src land 0xffff)
    + (dst lsr 16)
    + (dst land 0xffff)
    + proto + len)
