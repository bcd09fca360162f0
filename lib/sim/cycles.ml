let frequency_hz = 2.4e9

let of_sec s = Int64.of_float (s *. frequency_hz)

let of_ms ms = of_sec (ms /. 1e3)

let of_us us = of_sec (us /. 1e6)

let to_sec c = Int64.to_float c /. frequency_hz

let to_us c = to_sec c *. 1e6

let per_byte_at_gbps gbps = frequency_hz /. (gbps *. 1e9 /. 8.)

let pp_duration ppf c =
  let s = to_sec c in
  if s >= 1. then Format.fprintf ppf "%.2f s" s
  else if s >= 1e-3 then Format.fprintf ppf "%.2f ms" (s *. 1e3)
  else if s >= 1e-6 then Format.fprintf ppf "%.2f us" (s *. 1e6)
  else Format.fprintf ppf "%.0f ns" (s *. 1e9)
