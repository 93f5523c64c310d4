(* Fixed inputs whose analysis outputs are pinned in [Pinned_results]: each
   case is a label and the printed output the library computes for it now.
   The table holds what the engine with the decimal state key returned for
   the same labels, so a change to the state-space kernel that moves any
   transient, period, deadlock time, step count or buffer-sizing decision
   shows up as a differing line. *)

open Sdf

let fsl = Arch.Template.Use_fsl Arch.Fsl.default
let noc = Arch.Template.Use_noc Arch.Noc.default_config
let result r = Format.asprintf "%a" Throughput.pp_result r
let seeds n = List.init n (fun i -> i + 1)

(* the benchmark's synth-flow population parameters *)
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

let workload seed = Gen.Workload.generate ~config:generator ~seed ()

(* every non-self-loop channel bounded to [scale] times its lower bound *)
let bounded ?(scale = 1) g =
  Buffers.with_capacities g (fun c ->
      if Graph.is_self_loop c then None else Some (scale * Buffers.lower_bound c))

(* --- throughput results --------------------------------------------------- *)

(* the final-round analysis of each point of a cold MJPEG sweep *)
let mjpeg_dse () =
  let app =
    match Experiments.calibrated_mjpeg (Mjpeg.Streams.synthetic ()) with
    | Ok app -> app
    | Error e -> failwith e
  in
  let points, failures =
    Core.Dse.explore app ~tile_counts:[ 1; 2; 3; 4; 5 ] ~interconnects:[ fsl; noc ]
      ~options:Experiments.flow_options ()
  in
  List.map
    (fun (p : Core.Dse.point) ->
      ( Printf.sprintf "mjpeg-dse %s/%d" (Core.Dse.interconnect_label p.interconnect)
          p.tile_count,
        result p.flow.Core.Design_flow.mapping.Mapping.Flow_map.predicted ))
    points
  @ List.map
      (fun (tiles, ic, reason) ->
        (Printf.sprintf "mjpeg-dse %s/%d" ic tiles, "infeasible: " ^ reason))
      failures

(* the final-round analysis of the mapped flow, on FSL and on the NoC *)
let synth_flows () =
  List.concat_map
    (fun seed ->
      let w = workload seed in
      List.map
        (fun (label, ic) ->
          ( Printf.sprintf "synth %d %s" seed label,
            match Core.Design_flow.run_auto w.Gen.Workload.application ic () with
            | Ok flow -> result flow.Core.Design_flow.mapping.Mapping.Flow_map.predicted
            | Error e -> "error: " ^ Core.Flow_error.to_string e ))
        [ ("fsl", fsl); ("noc", noc) ])
    (seeds 50)

(* One iteration's firings split over two resources in a seeded order;
   many such orders deadlock, some only after several firings. *)
let static_orders (w : Gen.Workload.t) =
  let rng = Gen.Rng.create w.Gen.Workload.seed in
  let orders = [| []; [] |] in
  Array.iteri
    (fun a q ->
      let r = Gen.Rng.int rng 2 in
      orders.(r) <- List.init q (fun _ -> a) @ orders.(r))
    w.Gen.Workload.repetition;
  let shuffled l =
    let a = Array.of_list l in
    for i = Array.length a - 1 downto 1 do
      let j = Gen.Rng.int rng (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    a
  in
  {
    Execution.default_options with
    resources =
      List.mapi
        (fun i l ->
          { Execution.resource_name = Printf.sprintf "pe%d" i; static_order = shuffled l })
        (Array.to_list orders);
  }

(* the unmapped engine under the options the mapped flows never use *)
let engine_variants () =
  let d = Execution.default_options in
  List.concat_map
    (fun seed ->
      let w = workload seed in
      let g = w.Gen.Workload.graph in
      let case name ?(max_steps = 5000) ?(options = d) g =
        ( Printf.sprintf "engine %d %s" seed name,
          result (Throughput.analyse ~options ~max_steps ~method_:`State_space g) )
      in
      [
        case "unbounded" g;
        case "lower-bound" (bounded g);
        case "double" (bounded ~scale:2 g);
        case "ac2" ~options:{ d with auto_concurrency = Some 2 } (bounded ~scale:2 g);
        case "ac3" ~options:{ d with auto_concurrency = Some 3 } (bounded ~scale:3 g);
        case "ac-none"
          ~options:{ d with auto_concurrency = None; max_firings = 20_000 }
          (bounded ~scale:2 g);
        case "static-order" ~options:(static_orders w) (bounded ~scale:2 g);
        case "max-steps" ~max_steps:3 (bounded ~scale:2 g);
        case "max-firings" ~options:{ d with max_firings = 25 } (bounded ~scale:2 g);
      ])
    (seeds 50)

let throughput () = mjpeg_dse () @ synth_flows () @ engine_variants ()

(* --- buffer sizing ------------------------------------------------------------ *)

let capacities a = String.concat "," (Array.to_list (Array.map string_of_int a))

let sizing = function
  | None -> "none"
  | Some (s : Buffers.sizing) ->
      Printf.sprintf "capacities [%s] evaluations %d achieved %s" (capacities s.capacities)
        s.evaluations (result s.achieved)

let trade_off points =
  String.concat "; "
    (List.map
       (fun (p : Buffers.trade_off_point) ->
         Printf.sprintf "%d [%s] %s" p.total_tokens (capacities p.point_capacities)
           (Rational.to_string p.point_throughput))
       points)

(* Greedy growth from the lower bounds: the trade-off curve, then the
   sizing search for its best throughput and for half of it. *)
let buffers () =
  List.concat_map
    (fun seed ->
      let g = (workload seed).Gen.Workload.graph in
      List.concat_map
        (fun (label, analysis) ->
          let case name v = (Printf.sprintf "buffers %d %s %s" seed label name, v) in
          let points = Buffers.trade_off ~memo:false ~analysis g in
          let best =
            match List.rev points with
            | p :: _ -> p.Buffers.point_throughput
            | [] -> Rational.make 1 1000
          in
          let size target =
            sizing (Buffers.size_for_throughput ~memo:false ~analysis g ~target)
          in
          [
            case "trade-off" (trade_off points);
            case "size best" (size best);
            case "size half" (size (Rational.mul best (Rational.make 1 2)));
          ])
        [ ("state-space", `State_space); ("auto", `Auto) ])
    (seeds 40)
