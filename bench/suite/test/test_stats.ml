(* Pins the percentile, quartile and verdict rules the comparator applies.
   Expected quartiles are those of Python's statistics.quantiles(v, n=4). *)

open Suite_stats.Stats

let float_eq = Alcotest.float 1e-9
let inf = Float.infinity

let quartiles xs =
  let s = summarize xs in
  (s.q1, s.median, s.q3)

let check_quartiles name xs (q1, m, q3) =
  let g1, gm, g3 = quartiles xs in
  Alcotest.check float_eq (name ^ " q1") q1 g1;
  Alcotest.check float_eq (name ^ " median") m gm;
  Alcotest.check float_eq (name ^ " q3") q3 g3

let test_quartiles () =
  check_quartiles "1..10"
    (Array.init 10 (fun i -> float_of_int (i + 1)))
    (2.75, 5.5, 8.25);
  check_quartiles "unsorted odd" [| 3.; 1.; 2. |] (1., 2., 3.);
  check_quartiles "all tied" [| 5.; 5.; 5.; 5. |] (5., 5., 5.);
  (* two values: Python extrapolates past both ends *)
  check_quartiles "two" [| 1.; 2. |] (0.75, 1.5, 2.25)

let test_percentiles () =
  let xs = Array.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.check float_eq "p90 of 1..10" 9.9 (quantile xs 0.9);
  Alcotest.check float_eq "p50 of 1..10" 5.5 (quantile xs 0.5);
  Alcotest.check float_eq "single" 7. (quantile [| 7. |] 0.9);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (quantile [||] 0.5))

let test_infinite_latencies () =
  (* one failed op among five: the top quartile is infinite, the median is not *)
  check_quartiles "one failure" [| 10.; 20.; 30.; 40.; inf |] (15., 30., inf);
  Alcotest.check float_eq "p90 lands on the failure" inf
    (quantile (Array.append (Array.init 9 float_of_int) [| inf; inf |]) 0.9);
  Alcotest.check float_eq "all failed" inf (quantile [| inf; inf; inf |] 0.5);
  Alcotest.check float_eq "spread with an infinite quartile" inf
    (spread (summarize [| 10.; 20.; 30.; 40.; inf |]))

let verdict_t =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (verdict_to_string v))
    ( = )

let check_verdict name expected better ~bound base change =
  Alcotest.check verdict_t name expected (verdict better ~bound ~base ~change)

let test_verdicts () =
  let base = [| 100.; 101.; 99.; 100.; 102.; 98.; 100.; 101.; 99.; 100. |] in
  check_verdict "same runs" Unchanged Lower ~bound:0.05 base base;
  check_verdict "ten of ten faster, gap over the IQR" Improved Lower
    ~bound:0.05 base
    (Array.map (fun x -> x -. 10.) base);
  check_verdict "higher is better" Improved Higher ~bound:0.05 base
    (Array.map (fun x -> x +. 10.) base);
  check_verdict "slower past the bound" Worse Lower ~bound:0.05 base
    (Array.map (fun x -> x +. 10.) base);
  check_verdict "slower within the bound" Unchanged Lower ~bound:0.05 base
    (Array.map (fun x -> x +. 2.) base);
  (* a gap smaller than the base's own interquartile distance is no gain,
     even when every pair is won *)
  check_verdict "small consistent gain" Unchanged Lower ~bound:0.05 base
    (Array.map (fun x -> x -. 0.5) base)

let test_ties () =
  let base = Array.make 10 100. in
  (* eight wins and two ties: 8/10 falls short of nine tenths *)
  let change = Array.init 10 (fun i -> if i < 8 then 99. else 100.) in
  let p = pairs Lower ~base ~change in
  Alcotest.(check (list int)) "wins/losses/ties" [ 8; 0; 2 ]
    [ p.wins; p.losses; p.ties ];
  check_verdict "ties count for neither side" Unchanged Lower ~bound:0.05 base
    change;
  let change = Array.init 10 (fun i -> if i < 9 then 99. else 100.) in
  check_verdict "nine of ten wins" Improved Lower ~bound:0.05 base change

let test_unresolved () =
  let noisy = [| 60.; 140.; 80.; 120.; 100.; 70.; 130.; 90.; 110.; 100. |] in
  check_verdict "spread wider than the bound" Unresolved Lower ~bound:0.05
    noisy
    (Array.map (fun x -> x *. 1.02) noisy);
  (* every change run is below every base run, but the median gap stays
     inside the base's interquartile distance: judged, and no gain *)
  check_verdict "unless every change run beats every base run" Unchanged Lower
    ~bound:0.05 noisy
    (Array.init 10 (fun i -> 56. +. (float_of_int i /. 3.)))

let test_failed_runs () =
  let base = [| 10.; 10.1; 10.; 10.2; 10. |] in
  check_verdict "failures in the change are worse" Worse Lower ~bound:0.1 base
    [| inf; inf; inf; 10.; inf |];
  check_verdict "a failed base run leaves the row unjudged" Unresolved Lower
    ~bound:0.1 [| 10.; 10.1; inf; 10.2; 10. |] (Array.make 5 10.);
  Alcotest.(check (list int))
    "failed pairs are ties" [ 0; 0; 2 ]
    (let p = pairs Lower ~base:[| inf; inf |] ~change:[| inf; inf |] in
     [ p.wins; p.losses; p.ties ])

let () =
  Alcotest.run "bench-suite-stats"
    [
      ( "quantiles",
        [
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "infinite latencies" `Quick test_infinite_latencies;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "rules" `Quick test_verdicts;
          Alcotest.test_case "ties" `Quick test_ties;
          Alcotest.test_case "unresolved" `Quick test_unresolved;
          Alcotest.test_case "failed runs" `Quick test_failed_runs;
        ] );
    ]
