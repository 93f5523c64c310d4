(* compare.exe BASE.jsonl CHANGE.jsonl: the before/after table of two sets
   of benchmark runs (files written by benchmark.exe --record), one row per
   workload and end-to-end metric of BENCHMARK.json, judged by the rules in
   Suite_stats.Stats. Exit 0, or 4 when some row is worse, 2 on bad input. *)

module J = Jsonkit.Json
module Stats = Suite_stats.Stats

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("compare: " ^ s);
      exit 2)
    fmt

let read path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error e -> die "%s" e

let field doc k f = Option.bind (J.member k doc) f

type metric = { name : string; unit : string; better : Stats.better; bound : float }

let spec path =
  match J.of_string (read path) with
  | Error e -> die "%s: %s" path e
  | Ok doc ->
      List.map
        (fun m ->
          match
            ( field m "name" J.to_string_opt,
              field m "unit" J.to_string_opt,
              Option.bind (field m "better" J.to_string_opt) Stats.better_of_string,
              field m "bound" J.to_float_opt )
          with
          | Some name, Some unit, Some better, Some bound -> { name; unit; better; bound }
          | _ -> die "%s: malformed end_to_end entry" path)
        (Option.value ~default:[] (field doc "end_to_end" J.to_list_opt))

(* one recorded run per line *)
let runs path =
  String.split_on_char '\n' (read path)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun line ->
         match J.of_string line with
         | Ok doc when field doc "workload" J.to_string_opt <> None -> doc
         | Ok _ -> die "%s: a line without a workload" path
         | Error e -> die "%s: %s" path e)

let workload doc = Option.get (field doc "workload" J.to_string_opt)

let values runs ~workload:w name =
  Array.of_list
    (List.filter_map
       (fun doc ->
         if workload doc <> w then None
         else
           Option.bind (field doc "result" Option.some) (fun r ->
               Option.bind (field r "metrics" Option.some) (fun m ->
                   Option.bind (J.member name m) (fun v -> field v "value" J.to_float_opt))))
       runs)

type row = {
  r_workload : string;
  r_metric : metric;
  base : float array;
  change : float array;
  verdict : Stats.verdict;
}

let rows metrics base change =
  let workloads =
    List.fold_left (fun acc d -> if List.mem (workload d) acc then acc else acc @ [ workload d ]) [] base
  in
  List.concat_map
    (fun w ->
      List.filter_map
        (fun m ->
          let b = values base ~workload:w m.name and c = values change ~workload:w m.name in
          if b = [||] || c = [||] then None
          else
            Some
              {
                r_workload = w;
                r_metric = m;
                base = b;
                change = c;
                verdict = Stats.verdict m.better ~bound:m.bound ~base:b ~change:c;
              })
        metrics)
    workloads

let cell (s : Stats.summary) = Printf.sprintf "%.4g [%.4g, %.4g]" s.median s.q1 s.q3

let table rows =
  let header =
    Printf.sprintf "%-12s %-12s %-6s %-30s %-30s %8s %7s %6s %5s  %s" "workload" "metric" "unit"
      "base median [q1, q3]" "change median [q1, q3]" "worse" "spread" "bound" "wins" "verdict"
  in
  header
  :: List.map
       (fun r ->
         let b = Stats.summarize r.base and c = Stats.summarize r.change in
         let p = Stats.pairs r.r_metric.better ~base:r.base ~change:r.change in
         Printf.sprintf "%-12s %-12s %-6s %-30s %-30s %+7.1f%% %6.1f%% %5.0f%% %2d/%-2d  %s"
           r.r_workload r.r_metric.name r.r_metric.unit (cell b) (cell c)
           (100. *. Stats.worsening r.r_metric.better ~base:b ~change:c)
           (100. *. Stats.spread b) (100. *. r.r_metric.bound) p.wins
           (p.wins + p.losses + p.ties)
           (Stats.verdict_to_string r.verdict))
       rows

let summary_json (s : Stats.summary) values =
  J.Obj
    [
      ("median", J.Float s.median);
      ("q1", J.Float s.q1);
      ("q3", J.Float s.q3);
      ("n", J.Int s.n);
      ("values", J.List (Array.to_list (Array.map (fun v -> J.Float v) values)));
    ]

(* host facts and seeds, as the runs recorded them *)
let provenance runs =
  let distinct k f =
    List.sort_uniq compare (List.filter_map (fun d -> field d k f) runs)
  in
  J.Obj
    [
      ("runs", J.Int (List.length runs));
      ("seeds", J.List (List.map (fun s -> J.Int s) (distinct "seed" J.to_int_opt)));
      ("nproc", J.List (List.map (fun s -> J.Int s) (distinct "nproc" J.to_int_opt)));
      ("ocaml", J.List (List.map (fun s -> J.String s) (distinct "ocaml" J.to_string_opt)));
    ]

let json ~revision base change rows =
  Suite_stats.Pretty.document
    [
      ("revision", J.String revision);
      ("base", provenance base);
      ("change", provenance change);
      ( "rows",
        J.List
          (List.map
             (fun r ->
               J.Obj
                 [
                   ("workload", J.String r.r_workload);
                   ("metric", J.String r.r_metric.name);
                   ("unit", J.String r.r_metric.unit);
                   ("bound", J.Float r.r_metric.bound);
                   ("base", summary_json (Stats.summarize r.base) r.base);
                   ("change", summary_json (Stats.summarize r.change) r.change);
                   ("verdict", J.String (Stats.verdict_to_string r.verdict));
                 ])
             rows) );
      ("table", J.List (List.map (fun l -> J.String l) (table rows)));
    ]

let () =
  let spec_path = ref "BENCHMARK.json" and as_json = ref false and revision = ref "" in
  let files = ref [] in
  Arg.parse
    [
      ("--spec", Arg.Set_string spec_path, "FILE  metric directions and bounds (default BENCHMARK.json)");
      ("--json", Arg.Set as_json, " print the rows, summaries and table as JSON");
      ("--revision", Arg.Set_string revision, "REV  revision recorded in the JSON output");
    ]
    (fun f -> files := !files @ [ f ])
    "compare.exe [--spec FILE] [--json [--revision REV]] BASE.jsonl CHANGE.jsonl";
  match !files with
  | [ base_path; change_path ] ->
      let base = runs base_path and change = runs change_path in
      let rows = rows (spec !spec_path) base change in
      if !as_json then print_string (json ~revision:!revision base change rows)
      else List.iter print_endline (table rows);
      exit (if List.exists (fun r -> r.verdict = Stats.Worse) rows then 4 else 0)
  | _ -> die "expected BASE.jsonl CHANGE.jsonl"
