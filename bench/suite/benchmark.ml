(* The repository benchmark: four workloads over the automated flow, their
   end-to-end metrics with a correctness check on every answer, and a
   traced mode for the per-layer numbers. See bench/suite/README.md.

   Each workload runs in a child process of its own (fresh heap, cold
   analysis cache, its own peak RSS). Output: one JSON line per metric,
   one line of checks per workload, and last a line
   {"correct", "attempted", "failed", "metrics"}. Exit 0 when every answer
   matched its reference, 4 when one did not, 2 on an operational error. *)

module J = Jsonkit.Json
module Stats = Suite_stats.Stats
module W = Workloads

let workloads = [ "mjpeg-dse"; "synth-flow"; "mjpeg-sim"; "serve-mixed" ]
let exit_error = 2
let exit_gate = 4

let number = Suite_stats.Pretty.number

let metric_line ~workload (name, value, unit, n) =
  Printf.printf "{\"workload\":%s,\"name\":%s,\"value\":%s,\"unit\":%s,\"n\":%d}\n"
    (J.quote workload) (J.quote name) (number value) (J.quote unit) n

let metrics_object metrics =
  "{"
  ^ String.concat ","
      (List.map
         (fun (name, value, unit, _) ->
           Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (J.quote name) (number value)
             (J.quote unit))
         metrics)
  ^ "}"

let result_line ~correct ~(tally : W.tally) metrics =
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}" correct
    tally.attempted tally.failed (metrics_object metrics)

(* print every metric and the checks; the result line goes last *)
let report ~workload ~(tally : W.tally) ~checks ~shown metrics =
  List.iter (metric_line ~workload) (metrics @ shown);
  let correct = tally.failed = 0 && tally.attempted > 0 && List.for_all snd checks in
  Printf.printf "{\"workload\":%s,\"correct\":%b,\"checks\":{%s}}\n" (J.quote workload) correct
    (String.concat "," (List.map (fun (k, ok) -> Printf.sprintf "%s:%b" (J.quote k) ok) checks));
  print_endline (result_line ~correct ~tally metrics);
  if correct then 0 else exit_gate

let end_to_end (r : W.run) =
  let n = Array.length r.op_ms in
  [
    ("setup_s", Stats.quantile r.setup_s 0.5, "s", Array.length r.setup_s);
    ("ops_per_s", float_of_int n /. r.window_s, "ops/s", n);
    ("op_p50_ms", Stats.quantile r.op_ms 0.5, "ms", n);
    ("op_p90_ms", Stats.quantile r.op_ms 0.9, "ms", n);
    ("peak_rss_mb", r.peak_rss_mb, "MB", 1);
  ]

let measure ~workload ~seed ~seconds ~out =
  match workload with
  | "mjpeg-dse" -> W.Mjpeg_dse.measure ~seed ~seconds
  | "synth-flow" -> W.Synth_flow.measure ~seed ~seconds
  | "mjpeg-sim" -> W.Mjpeg_sim.measure ~seed ~seconds
  | _ -> W.Serve_mixed.measure ~seed ~seconds ~out

let trace ~workload ~seed ~seconds ~out =
  match workload with
  | "mjpeg-dse" -> W.Mjpeg_dse.trace ~seed
  | "synth-flow" -> W.Synth_flow.trace ~seed
  | "mjpeg-sim" -> W.Mjpeg_sim.trace ~seed
  | _ -> W.Serve_mixed.trace ~seed ~seconds ~out

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let with_n n = List.map (fun (name, value, unit) -> (name, value, unit, n))

(* one workload, in this process *)
let run_child ~workload ~seed ~seconds ~traced ~out =
  mkdir_p out;
  if not traced then begin
    let r = measure ~workload ~seed ~seconds ~out in
    report ~workload ~tally:r.tally ~checks:r.checks
      ~shown:(with_n (Array.length r.op_ms) r.extra)
      (end_to_end r)
  end
  else begin
    let r = trace ~workload ~seed ~seconds ~out in
    let dir = Filename.concat (Filename.concat out "trace") workload in
    mkdir_p dir;
    let values l =
      J.Obj
        (List.map
           (fun (n, v, u) ->
             let v = if Float.is_integer v then J.Int (int_of_float v) else J.Float v in
             (n, J.Obj [ ("value", v); ("unit", J.String u) ]))
           l)
    in
    Out_channel.with_open_bin (Filename.concat dir "trace.json") (fun oc ->
        output_string oc (Span.to_chrome_json ()));
    Out_channel.with_open_bin (Filename.concat dir "summary.json") (fun oc ->
        output_string oc
          (Suite_stats.Pretty.document
             [
               ("workload", J.String workload);
               ("seed", J.Int seed);
               ("layers", values r.layers);
               ("workload_only", values r.summary);
               ("spans", Span.per_name_json ());
             ]));
    report ~workload ~tally:r.t_tally ~checks:r.t_checks ~shown:(with_n 1 r.summary)
      (with_n 1 r.layers)
  end

(* --- parent ----------------------------------------------------------------------- *)

(* echo the child's output; its last line is its result *)
let relay ic =
  let rec go last =
    match In_channel.input_line ic with
    | Some line ->
        print_endline line;
        go (Some line)
    | None -> last
  in
  go None

let spawn_child ~workload args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (exe :: "--child" :: workload :: args) in
  let pid = Unix.create_process exe argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let last = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> relay ic) in
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> exit_error
  in
  (code, last)

let result_of line =
  match Option.map J.of_string line with
  | Some (Ok doc) when J.member "correct" doc <> None -> Some doc
  | _ -> None

let append_record ~file ~workload ~seed ~seconds ~traced line =
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_wronly ] 0o644 file (fun oc ->
      Printf.fprintf oc
        "{\"workload\":%s,\"seed\":%d,\"seconds\":%s,\"trace\":%d,\"nproc\":%d,\"ocaml\":%s,\"result\":%s}\n"
        (J.quote workload) seed (number seconds) (if traced then 1 else 0)
        (Domain.recommended_domain_count ()) (J.quote Sys.ocaml_version) line)

let run_parent ~selected ~seed ~seconds ~traced ~out ~record =
  let args =
    [ "--seed"; string_of_int seed; "--seconds"; number seconds; "--trace";
      (if traced then "1" else "0"); "--out"; out ]
  in
  let results =
    List.map
      (fun workload ->
        let code, last = spawn_child ~workload args in
        let result = result_of last in
        (match (record, last, result) with
        | Some file, Some line, Some _ -> append_record ~file ~workload ~seed ~seconds ~traced line
        | _ -> ());
        (workload, code, result))
      selected
  in
  (* several workloads: one combined result line; their metrics are on the
     lines above *)
  (if List.length selected > 1 then
     let field doc k f = Option.bind (J.member k doc) f in
     let docs = List.filter_map (fun (_, _, r) -> r) results in
     let sum k = List.fold_left (fun acc d -> acc + Option.value ~default:0 (field d k J.to_int_opt)) 0 docs in
     let correct =
       List.length docs = List.length selected
       && List.for_all (fun d -> field d "correct" J.to_bool_opt = Some true) docs
     in
     Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{}}\n" correct
       (sum "attempted") (sum "failed"));
  List.fold_left (fun acc (_, code, _) -> max acc code) 0 results

let write_references () =
  W.Mjpeg_dse.write_reference ();
  W.Mjpeg_sim.write_reference ();
  W.Synth_flow.write_reference ();
  W.Serve_mixed.write_reference ()

let () =
  let workload = ref "" and seed = ref 11 and seconds = ref 20. and trace_flag = ref 0 in
  let out = ref (Filename.concat "bench" (Filename.concat "suite" "_out")) in
  let record = ref None and child = ref None and refs = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  one of " ^ String.concat ", " workloads ^ " (default: all)");
      ("--seed", Arg.Set_int seed, "N  input seed (default 11; 12 is the holdout)");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds per workload (default 20)");
      ("--trace", Arg.Set_int trace_flag, "0|1  1 runs the traced mode and prints per-layer metrics");
      ("--out", Arg.Set_string out, "DIR  traces and daemon journals (default bench/suite/_out)");
      ("--record", Arg.String (fun f -> record := Some f), "FILE  append each result, for compare.exe");
      ("--write-references", Arg.Set refs, " regenerate bench/suite/reference/ from this build");
      ("--child", Arg.String (fun w -> child := Some w), "NAME  (internal) run one workload in this process");
    ]
  in
  let usage = "benchmark.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let known w = List.mem w workloads in
  let code =
    try
      if !refs then (write_references (); 0)
      else
        match !child with
        | Some w when known w ->
            run_child ~workload:w ~seed:!seed ~seconds:!seconds ~traced:(!trace_flag = 1) ~out:!out
        | Some w -> Refs.fail "unknown workload %s" w
        | None ->
            if !workload <> "" && not (known !workload) then
              Refs.fail "unknown workload %s (one of %s)" !workload (String.concat ", " workloads);
            if !trace_flag <> 0 && !trace_flag <> 1 then Refs.fail "--trace takes 0 or 1";
            run_parent
              ~selected:(if !workload = "" then workloads else [ !workload ])
              ~seed:!seed ~seconds:!seconds ~traced:(!trace_flag = 1) ~out:!out ~record:!record
    with Refs.Operational msg ->
      prerr_endline ("benchmark: " ^ msg);
      exit_error
  in
  exit code
