(* Order statistics over float samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array. *)
let rank a p =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float n)) - 1)))

let median xs = rank (sorted xs) 50.0

(* The tail of a run: the p90 of each group of [group] consecutive
   samples, which is the highest percentile a group supports with ten
   samples beyond it, and the median over the groups, with their count.
   The groups of a run see the same requests, so each estimates the
   same tail, and the median discards groups that met a burst of load
   from other tenants of a shared host: on a shared 2-vCPU Xeon VM,
   p99 over a whole run moved by a factor of two between otherwise
   equal runs. *)
let group = 100
let tail_pct = 90.0

let tail xs =
  let a = Array.of_list xs in
  let k = Array.length a / group in
  let group_tail i = rank (sorted (Array.to_list (Array.sub a (i * group) group))) tail_pct in
  ((if k = 0 then nan else median (List.init k group_tail)), k)

let sum xs = List.fold_left ( +. ) 0.0 xs
