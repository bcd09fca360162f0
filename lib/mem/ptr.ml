type t = { region : Region.t; off : int }

let v region off = { region; off }

let add t n = { t with off = t.off + n }

let is_untrusted t = not (Region.is_trusted t.region)

let valid t ~len = Region.in_bounds t.region ~off:t.off ~len

let overlaps a ~len1 b ~len2 =
  Region.same a.region b.region
  && a.off < b.off + len2
  && b.off < a.off + len1

let all_disjoint objs =
  let rec go = function
    | [] -> true
    | (p, len) :: rest ->
        List.for_all (fun (q, len') -> not (overlaps p ~len1:len q ~len2:len'))
          rest
        && go rest
  in
  go objs
