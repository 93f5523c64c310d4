(* Percentiles and the before/after verdict rules of the benchmark.

   Quantiles use the "exclusive" method (Hyndman & Fan type 6) of Python's
   statistics.quantiles, so quartiles printed here match the ones any
   reader recomputes from the raw runs. A failed operation is recorded as
   +infinity: it lands at the top of every latency distribution, as a
   request that missed every limit. *)

type better = Lower | Higher

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* [p] in [0, 1]; position p(n+1) among the sorted values, 1-based, with the
   bracketing index clamped to [1, n-1] exactly as Python clamps it *)
let quantile_sorted a p =
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n = 1 then a.(0)
  else
    let h = p *. float_of_int (n + 1) in
    let j = max 1 (min (n - 1) (int_of_float (Float.floor h))) in
    let w = h -. float_of_int j in
    let lo = a.(j - 1) and hi = a.(j) in
    if w = 0. || lo = hi then lo else lo +. ((hi -. lo) *. w)

let quantile xs p = quantile_sorted (sorted xs) p

type summary = { median : float; q1 : float; q3 : float; n : int }

let summarize xs =
  let a = sorted xs in
  {
    median = quantile_sorted a 0.5;
    q1 = quantile_sorted a 0.25;
    q3 = quantile_sorted a 0.75;
    n = Array.length a;
  }

(* interquartile distance as a share of the median; infinite when it cannot
   be formed (a zero, infinite or missing median) *)
let spread s =
  let r = (s.q3 -. s.q1) /. Float.abs s.median in
  if Float.is_nan r then Float.infinity else r

(* strictly better; equal values (including two infinities) are ties *)
let is_better better ~change ~base =
  match better with Lower -> change < base | Higher -> change > base

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

type pairs = { wins : int; losses : int; ties : int }

(* run i of the base against run i of the change *)
let pairs better ~base ~change =
  let n = min (Array.length base) (Array.length change) in
  let wins = ref 0 and losses = ref 0 in
  for i = 0 to n - 1 do
    if is_better better ~change:change.(i) ~base:base.(i) then incr wins
    else if is_better better ~change:base.(i) ~base:change.(i) then
      incr losses
  done;
  { wins = !wins; losses = !losses; ties = n - !wins - !losses }

type verdict = Improved | Worse | Unchanged | Unresolved

let verdict_to_string = function
  | Improved -> "improved"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* how far the change's median is worse than the base's, as a share of the
   base median; negative when it is better *)
let worsening better ~base ~change =
  if change.median = base.median then 0.
  else
    let d =
      match better with
      | Lower -> (change.median -. base.median) /. Float.abs base.median
      | Higher -> (base.median -. change.median) /. Float.abs base.median
    in
    (* an infinite base median leaves no finite ratio: only the sign counts *)
    if not (Float.is_nan d) then d
    else if is_better better ~change:change.median ~base:base.median then
      Float.neg_infinity
    else Float.infinity

let all_better better ~base ~change =
  Array.length base > 0
  && Array.length change > 0
  && Array.for_all
       (fun c -> Array.for_all (fun b -> is_better better ~change:c ~base:b) base)
       change

(* A gain holds only when the change wins at least nine tenths of the pairs
   (ties count for neither side) and the medians differ by more than the
   base's own interquartile distance. Otherwise a row whose base runs
   spread wider than its bound cannot be judged, unless every run of the
   change beats every run of the base; a judged row is worse when its
   median moved past the bound. *)
let verdict better ~bound ~base ~change =
  let b = summarize base and c = summarize change in
  let p = pairs better ~base ~change in
  let n = p.wins + p.losses + p.ties in
  let gap = Float.abs (c.median -. b.median) in
  if
    n > 0
    && 10 * p.wins >= 9 * n
    && is_better better ~change:c.median ~base:b.median
    && gap > b.q3 -. b.q1
  then Improved
  else if spread b > bound && not (all_better better ~base ~change) then
    Unresolved
  else if worsening better ~base:b ~change:c > bound then Worse
  else Unchanged
