(* The four workloads. Each one has an untraced run, which yields the
   end-to-end numbers, and a traced run, which re-executes a fixed slice of
   the same inputs twice (untraced, then traced) and yields the per-layer
   numbers. The flow is reached only through public entry points and with
   library defaults: no analysis method is chosen anywhere here. *)

module App = Appmodel.Application
module Flow_map = Mapping.Flow_map
module Rng = Gen.Rng
module J = Jsonkit.Json

let now = Unix.gettimeofday
let fsl = Arch.Template.Use_fsl Arch.Fsl.default
let noc = Arch.Template.Use_noc Arch.Noc.default_config
let ic_label = Core.Dse.interconnect_label
let ( let* ) = Result.bind
let flow_error r = Result.map_error Core.Flow_error.to_string r

(* --- results ------------------------------------------------------------------ *)

type tally = { mutable attempted : int; mutable failed : int }

let tally () = { attempted = 0; failed = 0 }

(* the first few failures go to stderr *)
let failed t msg =
  t.failed <- t.failed + 1;
  if t.failed <= 5 then prerr_endline ("benchmark: " ^ msg)

(* an op that took [ms]; [check] compares its result with the reference.
   A failed op costs +infinity. *)
let scored t ~label (r, ms) check =
  t.attempted <- t.attempted + 1;
  match Result.bind r check with
  | Ok () -> ms
  | Error e ->
      failed t (label ^ ": " ^ e);
      Float.infinity

(* only [f] is timed, not the check *)
let timed_op t ~label f check =
  let t0 = now () in
  let r = try f () with e -> Error (Printexc.to_string e) in
  scored t ~label (r, 1000. *. (now () -. t0)) check

let expect ~what ~reference actual =
  if actual = reference then Ok ()
  else Error (Printf.sprintf "%s %s, reference %s" what actual reference)

type run = {
  setup_s : float array;  (** every set-up repetition *)
  op_ms : float array;
  window_s : float;  (** wall time over which the ops completed *)
  peak_rss_mb : float;
  extra : (string * float * string) list;
      (** workload-specific numbers printed beside the end-to-end ones *)
  tally : tally;
  checks : (string * bool) list;
}

type traced = {
  layers : (string * float * string) list;
  summary : (string * float * string) list;  (** trace summary only *)
  t_tally : tally;
  t_checks : (string * bool) list;
}

(* Set up five times and keep the last one; earlier instances are released
   untimed. Set-up times of a few milliseconds jitter between runs, so
   setup_s is the median of the five. *)
let setup_repeated ?(release = ignore) f =
  let n = 5 in
  let times = Array.make n 0. in
  let rec go i prev =
    Option.iter release prev;
    let t0 = now () in
    let v = f () in
    times.(i) <- now () -. t0;
    if i + 1 = n then v else go (i + 1) (Some v)
  in
  let v = go 0 None in
  (times, v)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let median_ms a = Suite_stats.Stats.quantile a 0.5

(* peak resident set (VmHWM) of a live process, MB; [proc] is a pid or
   "self" *)
let peak_rss_mb proc =
  let status = Refs.read_file (Printf.sprintf "/proc/%s/status" proc) in
  List.fold_left
    (fun acc line ->
      try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> acc)
    Float.nan
    (String.split_on_char '\n' status)

(* --- the traced flow ------------------------------------------------------------ *)

let sim_run mapping ~iterations =
  let* r =
    Result.map_error Sim.Platform_sim.error_to_string
      (Sim.Platform_sim.run mapping ~iterations ())
  in
  let cycles = r.Sim.Platform_sim.total_cycles in
  Span.annotate "cycles" cycles;
  Span.annotate "tile_busy"
    (List.fold_left (fun acc (_, b) -> acc + b) 0 r.Sim.Platform_sim.tile_busy);
  Span.annotate "tile_cycles" (List.length r.Sim.Platform_sim.tile_busy * cycles);
  Ok r

(* The inner stages of Flow_map.run, re-run on the op's own inputs after
   its span closed: the split of mapping time by layer. The expansion is
   rebuilt with the final round's capacities and parameters, and the
   analysis is the final round's. *)
let replay app platform (m : Flow_map.t) ~iterations =
  let o = m.Flow_map.options in
  let binding name = Mapping.Binding.tile_of m.Flow_map.binding name in
  let stage name f = ignore (Span.record ~replay:true name f) in
  let exp = m.Flow_map.expansion in
  stage "mapping.binding" (fun () ->
      Mapping.Binding.bind app platform ~weights:o.Flow_map.weights
        ~fixed:o.Flow_map.fixed ~excluded:o.Flow_map.excluded_tiles
        ~forbidden_pairs:o.Flow_map.forbidden_pairs ());
  stage "mapping.order" (fun () ->
      ignore (Mapping.Order.actor_orders ~timed_graph:m.Flow_map.timed_graph ~binding);
      Mapping.Order.micro_orders ~expansion:exp ~timed_graph:m.Flow_map.timed_graph
        ~actor_orders:m.Flow_map.actor_orders);
  stage "mapping.comm_map" (fun () ->
      let capacity (c : Sdf.Graph.channel) =
        match List.assoc_opt c.channel_name exp.Mapping.Comm_map.intra_capacities with
        | Some k -> k
        | None -> 2 * Sdf.Buffers.lower_bound c
      in
      let params (c : Sdf.Graph.channel) p =
        match
          List.find_opt
            (fun ic -> ic.Mapping.Comm_map.ic_name = c.channel_name)
            exp.Mapping.Comm_map.inter_channels
        with
        | Some ic -> ic.Mapping.Comm_map.ic_params
        | None -> p
      in
      Mapping.Comm_map.expand ~graph:m.Flow_map.timed_graph ~binding ~platform
        ?noc:m.Flow_map.noc_allocation ~intra_tile_capacity:capacity
        ~params_override:params ()
      |> Result.iter (fun e ->
             Span.annotate "actors" (Sdf.Graph.actor_count e.Mapping.Comm_map.graph)));
  let g = exp.Mapping.Comm_map.graph in
  stage "sdf.repetition" (fun () -> Sdf.Repetition.compute g);
  stage "sdf.analyse" (fun () ->
      Sdf.Throughput.analyse ~options:m.Flow_map.exec_options
        ~max_steps:o.Flow_map.throughput_max_steps g);
  (match
     Span.record ~replay:true "sdf.hsdf.expand" (fun () ->
         let h = Sdf.Hsdf.expand ~options:m.Flow_map.exec_options g in
         Result.iter
           (fun h -> Span.annotate "instances" (Sdf.Graph.actor_count h.Sdf.Hsdf.graph))
           h;
         h)
   with
  | Ok h ->
      stage "sdf.mcm" (fun () ->
          try ignore (Sdf.Mcm.max_cycle_ratio h.Sdf.Hsdf.graph)
          with Sdf.Mcm.Diverged | Sdf.Rational.Overflow -> ())
  | Error _ -> ());
  stage "appmodel.functional" (fun () -> Appmodel.Functional.run app ~iterations ())

(* Design_flow.run_auto (then measure, when [iterations] > 0) as its public
   stages, in the order run_auto calls them, inside one op span. Returns
   the mapping, the measurement and the op span's milliseconds. *)
let traced_flow app ?tiles ?options choice ~iterations =
  ignore (Span.begin_op ());
  let t0 = now () in
  let result =
    Span.record "core.op" (fun () ->
        let* platform =
          Span.record "arch.template" (fun () ->
              Arch.Template.for_application app ?max_tiles:tiles choice)
        in
        let* _ =
          Span.record "sdf.admit" (fun () -> Sdf.Analysis.admit (App.graph app))
          |> Result.map_error (Format.asprintf "%a" Sdf.Analysis.pp_admission_error)
        in
        let* mapping =
          Span.record "mapping.flow_map" (fun () ->
              let before = Sdf.Throughput.memo_stats () in
              let m = Flow_map.run app platform ?options () in
              let d = Sdf.Memo.delta ~before ~after:(Sdf.Throughput.memo_stats ()) in
              Span.annotate "memo_hits" d.Sdf.Memo.hits;
              Span.annotate "memo_misses" d.Sdf.Memo.misses;
              m)
          |> Result.map_error Flow_map.error_to_string
        in
        let* () =
          match Flow_map.analysis_budget mapping with
          | Some steps -> Error (Printf.sprintf "analysis budget exhausted (%d steps)" steps)
          | None -> Ok ()
        in
        Span.record "mamps.project" (fun () ->
            Span.annotate "bytes" (Mamps.Project.total_bytes (Mamps.Project.generate mapping)));
        let* () =
          Span.record "mamps.netlist" (fun () ->
              Mamps.Netlist.validate (Mamps.Netlist.of_mapping mapping))
        in
        let* _dry = Span.record "sim.elaborate" (fun () -> sim_run mapping ~iterations:1) in
        let* measured =
          if iterations = 0 then Ok None
          else
            Result.map Option.some
              (Span.record "sim.measure" (fun () -> sim_run mapping ~iterations))
        in
        Ok (platform, mapping, measured))
  in
  let op_ms = 1000. *. (now () -. t0) in
  Result.iter
    (fun (platform, mapping, _) -> replay app platform mapping ~iterations:(1 + iterations))
    result;
  (Result.map (fun (_, m, r) -> (m, r)) result, op_ms)

(* per-layer numbers from the spans of a traced run *)
let layer_metrics ~overhead ~gc0 ~mcm0 =
  let busy = Span.busy and sum = Span.sum_arg in
  let p50 name = median_ms (Span.durations_ms name) in
  let hits = sum "mapping.flow_map" "memo_hits"
  and misses = sum "mapping.flow_map" "memo_misses" in
  let lookups = hits + misses in
  let maps = List.length (Span.named "mapping.flow_map") in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let sim_spans = [ "sim.elaborate"; "sim.measure" ] in
  let sim_sum key = List.fold_left (fun acc n -> acc + sum n key) 0 sim_spans in
  let sim_s = busy "sim.elaborate" +. busy "sim.measure" in
  let cycles = sim_sum "cycles" in
  let mcm = Sdf.Throughput.mcm_stats () in
  let gc = Gc.quick_stat () in
  let count n = float_of_int n in
  [
    ("sdf.analyse.busy_s", busy "sdf.analyse", "s");
    ("sdf.analyse.p50_ms", p50 "sdf.analyse", "ms");
    ("sdf.analyse.calls", count misses, "count");
    ("sdf.hsdf.expand.busy_s", busy "sdf.hsdf.expand", "s");
    ("sdf.hsdf.instances", count (sum "sdf.hsdf.expand" "instances"), "count");
    ("sdf.mcm.busy_s", busy "sdf.mcm", "s");
    ("sdf.repetition.busy_s", busy "sdf.repetition", "s");
    ("sdf.mcm.runs", count (mcm.Sdf.Throughput.runs - mcm0.Sdf.Throughput.runs), "count");
    ( "sdf.mcm.fallbacks",
      count (mcm.Sdf.Throughput.fallbacks - mcm0.Sdf.Throughput.fallbacks),
      "count" );
    ("sdf.memo.lookups", count lookups, "count");
    ("sdf.memo.hit_ratio", ratio hits lookups, "ratio");
    ("mapping.flow_map.busy_s", busy "mapping.flow_map", "s");
    ("mapping.flow_map.p50_ms", p50 "mapping.flow_map", "ms");
    ("mapping.analyses_per_map", ratio lookups maps, "count");
    ("mapping.binding.busy_s", busy "mapping.binding", "s");
    ("mapping.order.busy_s", busy "mapping.order", "s");
    ("mapping.comm_map.busy_s", busy "mapping.comm_map", "s");
    ("mapping.expanded_actors", count (sum "mapping.comm_map" "actors"), "count");
    ("arch.template.busy_s", busy "arch.template", "s");
    ("mamps.project.busy_s", busy "mamps.project", "s");
    ("mamps.project.bytes", count (sum "mamps.project" "bytes"), "bytes");
    ("mamps.netlist.busy_s", busy "mamps.netlist", "s");
    ("sim.run.busy_s", sim_s, "s");
    ("sim.elaborate.busy_s", busy "sim.elaborate", "s");
    ("sim.cycles", count cycles, "count");
    ("sim.tile_busy_frac", ratio (sim_sum "tile_busy") (sim_sum "tile_cycles"), "ratio");
    ("sim.mcycles_per_s", float_of_int cycles /. sim_s /. 1e6, "Mcycles/s");
    ("appmodel.functional.busy_s", busy "appmodel.functional", "s");
    ("core.op.self_s", Span.self_time "core.op", "s");
    ( "gc.major_collections",
      count (gc.Gc.major_collections - gc0.Gc.major_collections),
      "count" );
    ( "gc.top_heap_mb",
      float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6,
      "MB" );
    ("trace.overhead_frac", overhead, "ratio");
  ]

let serve_layers ?(accepted = 0) ?(deduped = 0) ?(high_water = 0)
    ?(journal_bytes = 0) () =
  [
    ("serve.jobs.accepted", float_of_int accepted, "count");
    ("serve.jobs.deduped", float_of_int deduped, "count");
    ("serve.queue.high_water", float_of_int high_water, "count");
    ("serve.journal.bytes", float_of_int journal_bytes, "bytes");
  ]

let traced_run ~overhead ~gc0 ~mcm0 ?(serve = serve_layers ()) ?(summary = [])
    t_tally t_checks =
  {
    layers = layer_metrics ~overhead ~gc0 ~mcm0 @ serve;
    summary;
    t_tally;
    t_checks;
  }

let overhead ~untraced ~traced = (median_ms traced /. median_ms untraced) -. 1.

(* --- mjpeg-dse ------------------------------------------------------------------ *)

(* The paper's case study swept over Dse's default space: 1-5 tiles on
   FSL and on the NoC, with the case-study binding pinned. *)
module Mjpeg_dse = struct
  let points =
    Array.of_list
      (List.concat_map (fun ic -> List.map (fun t -> (ic, t)) [ 1; 2; 3; 4; 5 ]) [ fsl; noc ])

  let key (ic, t) = Printf.sprintf "%s/%d" (ic_label ic) t

  let app () =
    match Experiments.calibrated_mjpeg (Mjpeg.Streams.synthetic ()) with
    | Ok app -> app
    | Error e -> Refs.fail "calibrating MJPEG: %s" e

  let guarantee (p : Core.Dse.point) = Refs.guarantee_string p.Core.Dse.guarantee

  let explore app (ic, t) =
    match Core.Dse.explore app ~tile_counts:[ t ] ~interconnects:[ ic ]
            ~options:Experiments.flow_options () with
    | [ p ], [] -> Ok p
    | _, (_, _, reason) :: _ -> Error reason
    | _ -> Error "expected exactly one design point"

  let write_reference () =
    let app = app () in
    Sdf.Throughput.memo_clear ();
    let found = Array.map (fun pt -> (pt, Result.get_ok (explore app pt))) points in
    let front = Core.Dse.pareto (Array.to_list (Array.map snd found)) in
    let point_json (pt, p) =
      J.Obj
        [
          ("point", J.String (key pt));
          ("guarantee", J.String (guarantee p));
          ("slices", J.Int p.Core.Dse.slices);
        ]
    in
    Refs.save "mjpeg-dse"
      ~produced_by:
        "benchmark.exe --write-references: one cold Core.Dse.explore per point \
         of the calibrated MJPEG app (synthetic sequence) with \
         Experiments.flow_options"
      [
        ("points", J.List (Array.to_list (Array.map point_json found)));
        ( "pareto",
          J.List
            (List.map
               (fun (p : Core.Dse.point) ->
                 J.String (key (p.Core.Dse.interconnect, p.Core.Dse.tile_count)))
               front) );
      ]

  (* point -> (guarantee, slices), and the Pareto front *)
  let reference () =
    let doc = Refs.load "mjpeg-dse" in
    let points =
      List.map
        (fun p -> (Refs.string p "point", (Refs.string p "guarantee", Refs.int p "slices")))
        (Refs.list doc "points")
    in
    (points, List.filter_map J.to_string_opt (Refs.list doc "pareto"))

  let check_guarantee refs pt g =
    expect ~what:"guarantee" ~reference:(fst (List.assoc (key pt) refs)) g

  let check_point refs pt (p : Core.Dse.point) =
    let* () = check_guarantee refs pt (guarantee p) in
    expect ~what:"slices"
      ~reference:(string_of_int (snd (List.assoc (key pt) refs)))
      (string_of_int p.Core.Dse.slices)

  let front_of found =
    List.map
      (fun (p : Core.Dse.point) -> key (p.Core.Dse.interconnect, p.Core.Dse.tile_count))
      (Core.Dse.pareto found)

  (* the 5-tile FSL guarantee is figure 6a's worst-case bar *)
  let figure6_check refs =
    let worst, _ = List.assoc "synthetic" (Refs.figure6 "a") in
    match Scanf.sscanf (fst (List.assoc "fsl/5" refs)) "%d/%d%!" Sdf.Rational.make with
    | g -> Printf.sprintf "%.6f" (Core.Report.mcus_per_mhz_second g) = worst
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> false

  let measure ~seed ~seconds =
    let refs, front = reference () in
    let setup_s, app =
      setup_repeated (fun () ->
          Sdf.Throughput.memo_clear ();
          app ())
    in
    let rng = Rng.create seed in
    let t = tally () in
    let ops = ref [] and fronts_ok = ref true in
    let t0 = now () in
    (* whole sweeps only, so every run weighs each design point equally *)
    while now () -. t0 < seconds do
      Sdf.Throughput.memo_clear ();
      let found = ref [] in
      Array.iter
        (fun pt ->
          let ms =
            timed_op t ~label:(key pt)
              (fun () -> explore app pt)
              (fun p ->
                found := p :: !found;
                check_point refs pt p)
          in
          ops := ms :: !ops)
        (shuffle rng points);
      if front_of !found <> front then fronts_ok := false
    done;
    let window_s = now () -. t0 in
    {
      setup_s;
      op_ms = Array.of_list (List.rev !ops);
      window_s;
      peak_rss_mb = peak_rss_mb "self";
      extra = [];
      tally = t;
      checks = [ ("pareto-front", !fronts_ok); ("figure6a-worst-case", figure6_check refs) ];
    }

  let trace ~seed =
    let refs, _ = reference () in
    let app = app () in
    let rng = Rng.create seed in
    let sweeps = List.init 2 (fun _ -> shuffle rng points) in
    let t = tally () in
    let untraced =
      List.concat_map
        (fun sweep ->
          Sdf.Throughput.memo_clear ();
          Array.to_list
            (Array.map
               (fun pt -> timed_op t ~label:(key pt) (fun () -> explore app pt) (check_point refs pt))
               sweep))
        sweeps
    in
    let gc0 = Gc.quick_stat () and mcm0 = Sdf.Throughput.mcm_stats () in
    let traced =
      List.concat_map
        (fun sweep ->
          Sdf.Throughput.memo_clear ();
          Array.to_list
            (Array.map
               (fun ((ic, tiles) as pt) ->
                 (* Dse drops pinned actors beyond the platform's tiles *)
                 let options =
                   {
                     Experiments.flow_options with
                     Flow_map.fixed =
                       List.filter (fun (_, k) -> k < tiles) Experiments.flow_options.Flow_map.fixed;
                   }
                 in
                 scored t ~label:(key pt)
                   (traced_flow app ~tiles ~options ic ~iterations:0)
                   (fun (m, _) ->
                     check_guarantee refs pt (Refs.guarantee_string (Flow_map.throughput m))))
               sweep))
        sweeps
    in
    traced_run
      ~overhead:(overhead ~untraced:(Array.of_list untraced) ~traced:(Array.of_list traced))
      ~gc0 ~mcm0 t
      [ ("figure6a-worst-case", figure6_check refs) ]
end

(* --- synth-flow ------------------------------------------------------------------- *)

(* Seeded Gen.Workload graphs through the whole flow. The population is a
   fixed list of generator seeds whose references are committed; the run's
   seed orders it. Every run therefore draws the same mix of cheap graphs
   and heavy-tailed analyses, and every answer is checked. *)
module Synth_flow = struct
  let generator =
    {
      Gen.Workload.min_actors = 4;
      max_actors = 8;
      max_repetition = 4;
      max_wcet = 100;
      max_token_words = 8;
      max_extra_edges = 3;
      max_back_edges = 2;
    }

  let population = 1000
  let iterations = 20

  (* generator-seed parity picks the interconnect *)
  let interconnect seed = if seed mod 2 = 0 then fsl else noc

  let run_graph (w : Gen.Workload.t) =
    let* flow =
      flow_error (Core.Design_flow.run_auto w.Gen.Workload.application (interconnect w.seed) ())
    in
    let* measured = flow_error (Core.Design_flow.measure flow ~iterations ()) in
    Ok (flow.Core.Design_flow.guarantee, measured)

  (* the paper's conservativeness claim, checked by the simulator *)
  let conservative guarantee measured =
    match guarantee with
    | None -> Ok ()
    | Some g ->
        if Sdf.Rational.compare (Sim.Platform_sim.steady_throughput measured) g >= 0
        then Ok ()
        else Error "measured throughput below the guarantee"

  let write_reference () =
    let graphs = ref [] and excluded = ref [] in
    for seed = 1 to population do
      let w = Gen.Workload.generate ~config:generator ~seed () in
      match run_graph w with
      | Ok (g, measured) when Result.is_ok (conservative g measured) ->
          graphs :=
            J.Obj
              [
                ("seed", J.Int seed);
                ("interconnect", J.String (ic_label (interconnect seed)));
                ("guarantee", J.String (Refs.guarantee_string g));
              ]
            :: !graphs
      | Ok _ -> excluded := J.Obj [ ("seed", J.Int seed); ("reason", J.String "not conservative") ] :: !excluded
      | Error e -> excluded := J.Obj [ ("seed", J.Int seed); ("reason", J.String e) ] :: !excluded
    done;
    Refs.save "synth-flow"
      ~produced_by:
        (Printf.sprintf
           "benchmark.exe --write-references: Core.Design_flow.run_auto with \
            default options, then measure ~iterations:%d, for generator seeds \
            1..%d; seeds whose flow fails are excluded from the population"
           iterations population)
      [
        ("generator", Refs.generator_json generator);
        ("graphs", J.List (List.rev !graphs));
        ("excluded", J.List (List.rev !excluded));
      ]

  let reference () =
    let doc = Refs.load "synth-flow" in
    Refs.check_generator doc generator;
    Array.of_list
      (List.map (fun g -> (Refs.int g "seed", Refs.string g "guarantee")) (Refs.list doc "graphs"))

  let generate refs =
    Array.map (fun (seed, _) -> Gen.Workload.generate ~config:generator ~seed ()) refs

  let check expected (guarantee, measured) =
    let* () =
      expect ~what:"guarantee" ~reference:expected (Refs.guarantee_string guarantee)
    in
    conservative guarantee measured

  let label (w : Gen.Workload.t) = Printf.sprintf "generator seed %d" w.seed

  let measure ~seed ~seconds =
    let refs = reference () in
    let setup_s, graphs = setup_repeated (fun () -> generate refs) in
    let rng = Rng.create seed in
    let t = tally () in
    let ops = ref [] in
    let order = ref [||] and pos = ref 0 in
    let t0 = now () in
    while now () -. t0 < seconds do
      (* each pass over the population starts from a cold analysis cache,
         so a repeated graph costs what a new one does *)
      if !pos = Array.length !order then begin
        order := shuffle rng (Array.init (Array.length graphs) Fun.id);
        pos := 0;
        Sdf.Throughput.memo_clear ()
      end;
      let i = !order.(!pos) in
      incr pos;
      ops :=
        timed_op t ~label:(label graphs.(i)) (fun () -> run_graph graphs.(i)) (check (snd refs.(i)))
        :: !ops
    done;
    {
      setup_s;
      op_ms = Array.of_list (List.rev !ops);
      window_s = now () -. t0;
      peak_rss_mb = peak_rss_mb "self";
      extra = [];
      tally = t;
      checks = [];
    }

  let trace ~seed =
    let refs = reference () in
    let graphs = generate refs in
    let rng = Rng.create seed in
    let slice = Array.sub (shuffle rng (Array.init (Array.length graphs) Fun.id)) 0 300 in
    let t = tally () in
    Sdf.Throughput.memo_clear ();
    let untraced =
      Array.map
        (fun i -> timed_op t ~label:(label graphs.(i)) (fun () -> run_graph graphs.(i)) (check (snd refs.(i))))
        slice
    in
    Sdf.Throughput.memo_clear ();
    let gc0 = Gc.quick_stat () and mcm0 = Sdf.Throughput.mcm_stats () in
    let traced =
      Array.map
        (fun i ->
          let w = graphs.(i) in
          scored t ~label:(label w)
            (traced_flow w.Gen.Workload.application (interconnect w.seed) ~iterations)
            (function
              | m, Some measured -> check (snd refs.(i)) (Flow_map.throughput m, measured)
              | _, None -> Error "no measurement"))
        slice
    in
    traced_run ~overhead:(overhead ~untraced ~traced) ~gc0 ~mcm0 t []
end

(* --- mjpeg-sim --------------------------------------------------------------------- *)

(* The mapped MJPEG platforms of figure 6, simulated with data-dependent
   timing: only the simulator and the decoder's actor code are timed. *)
module Mjpeg_sim = struct
  let passes = 20

  type flow = {
    seq : Mjpeg.Streams.sequence;
    ic : Arch.Template.interconnect_choice;
    app : App.t;
    mapping : Flow_map.t;
  }

  let key f = Printf.sprintf "%s/%s" f.seq.Mjpeg.Streams.seq_name (ic_label f.ic)
  let iterations f = passes * Mjpeg.Streams.mcus f.seq

  let calibrated seq =
    match Experiments.calibrated_mjpeg seq with
    | Ok app -> app
    | Error e -> Refs.fail "calibrating MJPEG: %s" e

  (* the twelve flows, mapped with [map] *)
  let map_all map =
    Sdf.Throughput.memo_clear ();
    Array.of_list
      (List.concat_map
         (fun seq ->
           let app = calibrated seq in
           List.map
             (fun ic ->
               match map app ic with
               | Ok mapping -> { seq; ic; app; mapping }
               | Error e -> Refs.fail "mapping %s: %s" seq.Mjpeg.Streams.seq_name e)
             [ fsl; noc ])
         (Mjpeg.Streams.all ()))

  let setup () =
    map_all (fun app ic ->
        let* flow = flow_error (Core.Design_flow.run_auto app ~options:Experiments.flow_options ic ()) in
        Ok flow.Core.Design_flow.mapping)

  let simulate f ~iterations =
    Result.map_error Sim.Platform_sim.error_to_string
      (Sim.Platform_sim.run f.mapping ~iterations ())

  let write_reference () =
    let flows = setup () in
    Refs.save "mjpeg-sim"
      ~produced_by:
        (Printf.sprintf
           "benchmark.exe --write-references: Sim.Platform_sim.run \
            ~iterations:(%d x MCUs) with data-dependent timing on each \
            sequence's calibrated MJPEG app mapped by Core.Design_flow.run_auto \
            with Experiments.flow_options"
           passes)
      [
        ( "runs",
          J.List
            (Array.to_list
               (Array.map
                  (fun f ->
                    let r = Result.get_ok (simulate f ~iterations:(iterations f)) in
                    J.Obj
                      [
                        ("run", J.String (key f));
                        ("iterations", J.Int (iterations f));
                        ("total_cycles", J.Int r.Sim.Platform_sim.total_cycles);
                      ])
                  flows)) );
      ]

  let reference () =
    List.map
      (fun r -> (Refs.string r "run", Refs.int r "total_cycles"))
      (Refs.list (Refs.load "mjpeg-sim") "runs")

  let check refs f (r : Sim.Platform_sim.result) =
    expect ~what:"cycles"
      ~reference:(string_of_int (List.assoc (key f) refs))
      (string_of_int r.Sim.Platform_sim.total_cycles)

  (* figure 6's worst-case and 4-pass measured bars, per interconnect *)
  let figure6_checks flows =
    List.map
      (fun (label, ic) ->
        let csv = Refs.figure6 label in
        let ok =
          Array.for_all
            (fun f ->
              f.ic <> ic
              ||
              let worst, measured = List.assoc f.seq.Mjpeg.Streams.seq_name csv in
              let cell r = Printf.sprintf "%.6f" (Core.Report.mcus_per_mhz_second r) in
              Option.map cell (Flow_map.throughput f.mapping) = Some worst
              &&
              match simulate f ~iterations:(4 * Mjpeg.Streams.mcus f.seq) with
              | Ok r -> cell (Sim.Platform_sim.steady_throughput r) = measured
              | Error _ -> false)
            flows
        in
        ("figure6" ^ label ^ "-csv", ok))
      [ ("a", fsl); ("b", noc) ]

  let measure ~seed ~seconds =
    let refs = reference () in
    let setup_s, flows = setup_repeated setup in
    let rng = Rng.create seed in
    let t = tally () in
    let ops = ref [] in
    let t0 = now () in
    (* whole rounds over the twelve flows *)
    while now () -. t0 < seconds do
      Array.iter
        (fun f ->
          ops :=
            timed_op t ~label:(key f) (fun () -> simulate f ~iterations:(iterations f)) (check refs f)
            :: !ops)
        (shuffle rng flows)
    done;
    let window_s = now () -. t0 in
    {
      setup_s;
      op_ms = Array.of_list (List.rev !ops);
      window_s;
      peak_rss_mb = peak_rss_mb "self";
      extra = [];
      tally = t;
      checks = figure6_checks flows;
    }

  let trace ~seed =
    let refs = reference () in
    let gc0 = Gc.quick_stat () and mcm0 = Sdf.Throughput.mcm_stats () in
    (* the set-up mapping is traced too: it is where this workload's
       analysis runs *)
    let flows =
      map_all (fun app ic ->
          let r, _ = traced_flow app ~options:Experiments.flow_options ic ~iterations:0 in
          Result.map fst r)
    in
    let round = shuffle (Rng.create seed) flows in
    let t = tally () in
    let untraced =
      Array.map
        (fun f -> timed_op t ~label:(key f) (fun () -> simulate f ~iterations:(iterations f)) (check refs f))
        round
    in
    let traced =
      Array.map
        (fun f ->
          ignore (Span.begin_op ());
          let ms =
            timed_op t ~label:(key f)
              (fun () ->
                Span.record "core.op" (fun () ->
                    Span.record "sim.measure" (fun () -> sim_run f.mapping ~iterations:(iterations f))))
              (check refs f)
          in
          (* the decoder's own compute over the same MCUs, apart from the
             simulator's bookkeeping *)
          ignore
            (Span.record ~replay:true "appmodel.functional" (fun () ->
                 Appmodel.Functional.run f.app ~iterations:(iterations f) ()));
          ms)
        round
    in
    traced_run ~overhead:(overhead ~untraced ~traced) ~gc0 ~mcm0 t (figure6_checks flows)
end

(* --- serve-mixed ---------------------------------------------------------------- *)

(* Open-loop traffic against `mamps_flow serve --workers 1`: 32 req/s for
   the first half of the run, 64 req/s for the second; 70 % new graphs,
   15 % variants of a hot graph (a new job whose analysis is a cache hit)
   and 15 % exact repeats (answered by dedup). The rates put the single
   worker at roughly 10 % and 20 % busy, and give a 20-second run the
   ~1000 latencies its 90th percentile needs to repeat within a few
   percent. *)
module Serve_mixed = struct
  (* synth-flow's graphs with WCETs up to 1000 cycles: a few milliseconds
     of daemon work per job, so latency is mostly flow work rather than
     HTTP and thread wake-ups *)
  let generator = { Synth_flow.generator with Gen.Workload.max_wcet = 1000 }
  let low_rate = 32
  let high_rate = 64

  (* the new graphs a 20-second run sends: 70 % of 32 x 10 + 64 x 10 *)
  let fresh_pool = 672
  let hot_set = 32
  let fresh_base = 100_000
  let hot_base = 200_000
  let flow_path = "/jobs?mode=flow&wait=1"
  let daemon_binary = Filename.concat "_build" (Filename.concat "default" "bin/mamps_flow.exe")

  let body (w : Gen.Workload.t) = Sdf.Xmlio.to_string w.Gen.Workload.graph

  (* what the daemon answers, computed in-process by the daemon's own job
     executor with the daemon's defaults *)
  let job_guarantee (w : Gen.Workload.t) =
    let* spec =
      Serve.Job.parse ~body:(body w) ~query:[ ("mode", "flow") ] ~default_timeout:None
    in
    match Serve.Job.execute spec with
    | Serve.Job.Completed doc ->
        Option.to_result ~none:"no guarantee" (Serve_load.guarantee_of_result doc)
    | outcome -> Error (Serve.Job.outcome_status outcome)

  let write_reference () =
    let collect base wanted =
      let rec go seed acc excluded =
        if List.length acc = wanted then (List.rev acc, List.rev excluded)
        else
          let w = Gen.Workload.generate ~config:generator ~seed () in
          match job_guarantee w with
          | Ok g -> go (seed + 1) (J.Obj [ ("seed", J.Int seed); ("guarantee", J.String g) ] :: acc) excluded
          | Error e -> go (seed + 1) acc (J.Obj [ ("seed", J.Int seed); ("reason", J.String e) ] :: excluded)
      in
      go base [] []
    in
    let fresh, fresh_excluded = collect fresh_base fresh_pool in
    let hot, hot_excluded = collect hot_base hot_set in
    Refs.save "serve-mixed"
      ~produced_by:
        (Printf.sprintf
           "benchmark.exe --write-references: Serve.Job.execute on \
            POST %s bodies (the daemon's executor and defaults) for the first \
            %d completing generator seeds from %d (fresh) and %d from %d (hot)"
           flow_path fresh_pool fresh_base hot_set hot_base)
      [
        ("generator", Refs.generator_json generator);
        ("fresh", J.List fresh);
        ("hot", J.List hot);
        ("excluded", J.List (fresh_excluded @ hot_excluded));
      ]

  (* generator seed, request body, reference guarantee *)
  type graphs = {
    fresh : (int * string * string) array;
    hot : (int * string * string) array;
  }

  let load () =
    let doc = Refs.load "serve-mixed" in
    Refs.check_generator doc generator;
    let pool key =
      Array.of_list
        (List.map
           (fun g ->
             let seed = Refs.int g "seed" in
             (seed, body (Gen.Workload.generate ~config:generator ~seed ()), Refs.string g "guarantee"))
           (Refs.list doc key))
    in
    { fresh = pool "fresh"; hot = pool "hot" }

  let request ~due ~cls ~rate ?(path = flow_path) (source, body, expect) =
    { Serve_load.due; cls; rate; path; body; source; expect }

  let warm_up graphs =
    Array.map (request ~due:0. ~cls:"hot" ~rate:0) graphs.hot

  (* Seeded schedule over [seconds]: each phase's arrivals are uniform over
     the phase given its count (a Poisson process conditioned on the count),
     and the request classes come in exact proportions. *)
  let schedule ~rng ~seconds graphs =
    let uniform lo hi = lo +. ((hi -. lo) *. float_of_int (Rng.int rng 1_000_000_000) /. 1e9) in
    let half = seconds /. 2. in
    let phase rate lo =
      let n = int_of_float (Float.round (float_of_int rate *. half)) in
      let dues = Array.init n (fun _ -> uniform lo (lo +. half)) in
      Array.sort Float.compare dues;
      Array.map (fun d -> (d, rate)) dues
    in
    let arrivals = Array.append (phase low_rate 0.) (phase high_rate half) in
    let n = Array.length arrivals in
    let repeats = n * 15 / 100 and variants = n * 15 / 100 in
    let classes =
      shuffle rng
        (Array.init n (fun i ->
             if i < repeats then "repeat" else if i < repeats + variants then "variant" else "fresh"))
    in
    (* the seed orders a fixed mix: every pool graph once, and the same
       variants, so runs differ in timing and order but not in content *)
    let fresh = shuffle rng graphs.fresh in
    let nh = Array.length graphs.hot in
    let variant_keys =
      shuffle rng (Array.init variants (fun k -> (k mod nh, 4 + ((k + (k / nh)) mod 8))))
    in
    let earlier = ref (Array.to_list (warm_up graphs)) in
    let nf = ref 0 and nv = ref 0 in
    Array.mapi
      (fun i (due, rate) ->
        let rq =
          match classes.(i) with
          | "fresh" ->
              (* beyond the pool a graph recurs, and is then served by dedup *)
              let g = fresh.(!nf mod Array.length fresh) in
              incr nf;
              request ~due ~cls:"fresh" ~rate g
          | "variant" ->
              let h, iters = variant_keys.(!nv mod Array.length variant_keys) in
              incr nv;
              request ~due ~cls:"variant" ~rate
                ~path:(Printf.sprintf "%s&iterations=%d" flow_path iters)
                graphs.hot.(h)
          | _ ->
              let pick = List.nth !earlier (Rng.int rng (List.length !earlier)) in
              { pick with Serve_load.due; cls = "repeat"; rate }
        in
        earlier := rq :: !earlier;
        rq)
      arrivals

  let out_dir out =
    let d = Filename.concat out "serve" in
    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
    d

  (* a daemon with a fresh journal that has answered the hot set *)
  let start ~dir ~name graphs =
    let d = Serve_load.start ~binary:daemon_binary ~dir ~name in
    let _, replies =
      try Serve_load.run_open_loop ~port:d.Serve_load.port ~lanes:1 (warm_up graphs)
      with e ->
        Serve_load.stop d;
        raise e
    in
    (d, Array.for_all Serve_load.ok replies)

  let release (d, _) = Serve_load.stop d

  let record t replies =
    Array.iter
      (fun (r : Serve_load.reply) ->
        t.attempted <- t.attempted + 1;
        if not (Serve_load.ok r) then
          failed t
            (Printf.sprintf "%s request due at %.3f s: status %d, guarantee %s (reference %s)"
               r.rq.cls r.rq.due r.status
               (Option.value ~default:"-" r.guarantee)
               r.rq.expect))
      replies

  let latencies replies =
    Array.map
      (fun r -> if Serve_load.ok r then Serve_load.latency_ms r else Float.infinity)
      replies

  (* latency split by class and by rate, and how late the client ran *)
  let breakdown replies =
    let q sel p =
      let xs = latencies (Array.of_list (List.filter sel (Array.to_list replies))) in
      if xs = [||] then Float.nan else Suite_stats.Stats.quantile xs p
    in
    let cls c (r : Serve_load.reply) = r.rq.cls = c in
    let rate k (r : Serve_load.reply) = r.rq.rate = k in
    let late =
      Array.map (fun (r : Serve_load.reply) -> 1000. *. (r.sent -. r.rq.due)) replies
    in
    let at_rate r p =
      (Printf.sprintf "serve.r%d.p%d_ms" r (int_of_float (100. *. p)), q (rate r) p, "ms")
    in
    [
      at_rate low_rate 0.5;
      at_rate low_rate 0.9;
      at_rate high_rate 0.5;
      at_rate high_rate 0.9;
      ("serve.fresh.p50_ms", q (cls "fresh") 0.5, "ms");
      ("serve.fresh.p90_ms", q (cls "fresh") 0.9, "ms");
      ("serve.variant.p50_ms", q (cls "variant") 0.5, "ms");
      ("serve.repeat.p50_ms", q (cls "repeat") 0.5, "ms");
      ("serve.client_late.p90_ms", Suite_stats.Stats.quantile late 0.9, "ms");
    ]

  let measure ~seed ~seconds ~out =
    let graphs = load () in
    let dir = out_dir out in
    let setup_s, (d, warm_ok) =
      setup_repeated ~release (fun () -> start ~dir ~name:"serve-mixed" graphs)
    in
    let t = tally () in
    let schedule = schedule ~rng:(Rng.create seed) ~seconds graphs in
    let replies, rss =
      Fun.protect
        ~finally:(fun () -> Serve_load.stop d)
        (fun () ->
          let _, replies = Serve_load.run_open_loop ~port:d.Serve_load.port ~lanes:2 schedule in
          (replies, peak_rss_mb (string_of_int d.Serve_load.pid)))
    in
    record t replies;
    let last = Array.fold_left (fun acc (r : Serve_load.reply) -> Float.max acc r.answered) 0. replies in
    {
      setup_s;
      op_ms = latencies replies;
      window_s = last;
      peak_rss_mb = rss;
      extra = breakdown replies;
      tally = t;
      checks = [ ("warm-up", warm_ok) ];
    }

  let trace ~seed ~seconds ~out =
    let graphs = load () in
    let dir = out_dir out in
    (* the same schedule against two fresh daemons, the second one traced
       from the client side *)
    let schedule = schedule ~rng:(Rng.create seed) ~seconds:(seconds /. 2.) graphs in
    let t = tally () in
    let pass ~name f =
      let d, warm_ok = start ~dir ~name graphs in
      Fun.protect
        ~finally:(fun () -> Serve_load.stop d)
        (fun () ->
          let t0, replies = Serve_load.run_open_loop ~port:d.Serve_load.port ~lanes:2 schedule in
          record t replies;
          (warm_ok, replies, f d t0 replies))
    in
    let warm_u, untraced, () = pass ~name:"serve-untraced" (fun _ _ _ -> ()) in
    let warm_t, traced, serve =
      pass ~name:"serve-traced" (fun d t0 replies ->
          Array.iter
            (fun (r : Serve_load.reply) ->
              let op = Span.begin_op () in
              let at s = t0 +. s in
              let parent =
                Span.add ~op ~parent:(-1) "serve.request" ~start:(at r.rq.due) ~stop:(at r.answered)
                  ~args:[ ("status", r.status); ("rate", r.rq.rate) ]
              in
              ignore (Span.add ~op ~parent ("serve.wait." ^ r.rq.cls) ~start:(at r.rq.due) ~stop:(at r.sent));
              ignore (Span.add ~op ~parent ("serve.reply." ^ r.rq.cls) ~start:(at r.sent) ~stop:(at r.answered)))
            replies;
          let m = Serve_load.metrics d in
          let counter name =
            Option.value ~default:0
              (Option.bind (Option.bind (J.member "counters" m) (J.member name)) J.to_int_opt)
          in
          let high_water =
            Option.value ~default:0
              (Option.bind
                 (Option.bind
                    (Option.bind (J.member "gauges" m) (J.member "serve.queue.depth"))
                    (J.member "high_water"))
                 J.to_int_opt)
          in
          serve_layers ~accepted:(counter "serve.jobs.accepted")
            ~deduped:(counter "serve.jobs.deduped") ~high_water
            ~journal_bytes:(String.length (Refs.read_file d.Serve_load.journal)) ())
    in
    (* the daemon's layers are out of the client's sight: replay a sample of
       the new graphs through the traced flow in-process, with the daemon's
       measurement length *)
    let gc0 = Gc.quick_stat () and mcm0 = Sdf.Throughput.mcm_stats () in
    List.iter
      (fun (r : Serve_load.reply) ->
        match Serve.Job.parse ~body:r.rq.body ~query:[] ~default_timeout:None with
        | Error e -> failed t e
        | Ok spec ->
            let w = Gen.Workload.generate ~config:generator ~seed:r.rq.source () in
            ignore
              (traced_flow w.Gen.Workload.application
                 (match spec.Serve.Job.sp_interconnect with `Fsl -> fsl | `Noc -> noc)
                 ~iterations:spec.Serve.Job.sp_iterations))
      (List.filteri
         (fun i _ -> i < 32)
         (List.filter (fun (r : Serve_load.reply) -> r.rq.cls = "fresh") (Array.to_list traced)));
    traced_run
      ~overhead:(overhead ~untraced:(latencies untraced) ~traced:(latencies traced))
      ~gc0 ~mcm0 ~serve ~summary:(breakdown traced) t
      [ ("warm-up", warm_u && warm_t) ]
end
