(* The serve-mixed load generator: starts `mamps_flow serve` as a child process,
   speaks the daemon's HTTP/1.1 subset over loopback, and replays an
   open-loop request schedule from one client process with two lanes of
   one connection each. *)

module J = Jsonkit.Json

(* --- HTTP ------------------------------------------------------------------- *)

(* one request per connection, read to EOF: the daemon closes every
   response *)
let http ~port ~meth ~path ?(body = "") () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf
          "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\
           Connection: close\r\n\r\n%s"
          meth path (String.length body) body
      in
      let rec send off =
        if off < String.length req then
          send (off + Unix.write_substring fd req off (String.length req - off))
      in
      send 0;
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec recv () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            recv ()
      in
      recv ();
      let raw = Buffer.contents buf in
      let status =
        try Scanf.sscanf raw "HTTP/1.1 %d" Fun.id
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> 0
      in
      let body =
        let rec find i =
          if i + 3 >= String.length raw then String.length raw
          else if String.sub raw i 4 = "\r\n\r\n" then i + 4
          else find (i + 1)
        in
        let at = find 0 in
        String.sub raw at (String.length raw - at)
      in
      (status, body))

let ( let* ) = Option.bind

(* the guarantee of a completed flow job's result document, as
   Sdf.Rational.to_string prints it, or "none" *)
let guarantee_of_result result =
  match J.member "guarantee" result with
  | Some J.Null -> Some "none"
  | Some g ->
      let* num = Option.bind (J.member "num" g) J.to_int_opt in
      let* den = Option.bind (J.member "den" g) J.to_int_opt in
      Some (Sdf.Rational.to_string (Sdf.Rational.make num den))
  | None -> None

let guarantee_of_body body =
  let* doc = Result.to_option (J.of_string body) in
  Option.bind (J.member "result" doc) guarantee_of_result

(* --- daemon lifecycle ------------------------------------------------------- *)

type daemon = { pid : int; port : int; journal : string }

let port_of_log text =
  let marker = "listening on http://" in
  let ml = String.length marker in
  let rec find i =
    if i + ml > String.length text then None
    else if String.sub text i ml = marker then Some (i + ml)
    else find (i + 1)
  in
  Option.bind (find 0) (fun start ->
      Option.bind (String.index_from_opt text start ':') (fun colon ->
          let stop = ref (colon + 1) in
          while !stop < String.length text && text.[!stop] >= '0' && text.[!stop] <= '9' do
            incr stop
          done;
          int_of_string_opt (String.sub text (colon + 1) (!stop - colon - 1))))

let reap pid =
  let deadline = Unix.gettimeofday () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.02;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
  in
  wait ()

let start ~binary ~dir ~name =
  let log = Filename.concat dir (name ^ ".log") in
  let journal = Filename.concat dir (name ^ ".journal") in
  (try Sys.remove journal with Sys_error _ -> ());
  let out = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let argv =
    [| binary; "serve"; "--port"; "0"; "--workers"; "1"; "--journal"; journal |]
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out)
      (fun () -> Unix.create_process binary argv Unix.stdin out out)
  in
  let deadline = Unix.gettimeofday () +. 20. in
  let rec await () =
    match port_of_log (Refs.read_file log) with
    | Some port -> { pid; port; journal }
    | None ->
        if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then
          Refs.fail "daemon exited during start-up:\n%s" (Refs.read_file log)
        else if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid;
          Refs.fail "daemon did not come up:\n%s" (Refs.read_file log)
        end
        else begin
          Unix.sleepf 0.005;
          await ()
        end
  in
  await ()

(* SIGTERM drains the daemon; wait until it has exited *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap d.pid

let metrics d =
  match http ~port:d.port ~meth:"GET" ~path:"/metrics" () with
  | 200, body -> (
      match J.of_string body with Ok doc -> doc | Error e -> Refs.fail "/metrics: %s" e)
  | status, _ -> Refs.fail "/metrics answered %d" status

(* --- open loop ---------------------------------------------------------------- *)

type request = {
  due : float;  (** seconds after the schedule starts *)
  cls : string;  (** fresh, variant or repeat *)
  rate : int;  (** arrival rate of the request's phase, per second *)
  path : string;
  body : string;
  source : int;  (** generator seed of the graph in [body] *)
  expect : string;  (** reference guarantee *)
}

type reply = {
  rq : request;
  sent : float;  (** seconds after the schedule starts *)
  answered : float;
  status : int;
  guarantee : string option;
}

(* Each lane takes the next request, sleeps until it is due, sends it and
   waits for the reply; a slow reply makes later requests late, and their
   latency is still taken from when they were due. *)
let run_open_loop ~port ~lanes (schedule : request array) =
  let next = Atomic.make 0 in
  let replies = Array.make (Array.length schedule) None in
  let t0 = Unix.gettimeofday () in
  let lane () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length schedule then begin
        let rq = schedule.(i) in
        let wait = t0 +. rq.due -. Unix.gettimeofday () in
        if wait > 0. then Unix.sleepf wait;
        let sent = Unix.gettimeofday () -. t0 in
        let status, body =
          try http ~port ~meth:"POST" ~path:rq.path ~body:rq.body ()
          with Unix.Unix_error _ -> (0, "")
        in
        let answered = Unix.gettimeofday () -. t0 in
        replies.(i) <-
          Some { rq; sent; answered; status; guarantee = guarantee_of_body body };
        loop ()
      end
    in
    loop ()
  in
  List.iter Thread.join (List.init lanes (fun _ -> Thread.create lane ()));
  (t0, Array.map Option.get replies)

let latency_ms r = 1000. *. (r.answered -. r.rq.due)

let ok r = r.status = 200 && r.guarantee = Some r.rq.expect
