(* The repository benchmark.  Runs one workload for a fixed time and
   prints its end-to-end metrics, or with --trace 1 its per-layer
   metrics, ending with one JSON line.

   Every layer is timed from outside, around calls into its public
   functions; nothing inside the program is instrumented.  README.md
   says why each workload exists and what each metric means. *)

module Workloads = Agp_exp.Workloads
module App_instance = Agp_apps.App_instance
module Backend = Agp_backend.Backend
module Semantics = Agp_core.Semantics
module Engine = Agp_core.Engine
module Opcode = Agp_core.Opcode
module Accelerator = Agp_hw.Accelerator
module Config = Agp_hw.Config
module Attribution = Agp_obs.Attribution
module Json = Agp_obs.Json
module Stats = Agp_util.Stats
module Protocol = Agp_serve.Protocol
module Loadgen = Agp_serve.Loadgen
module Server = Agp_serve.Server

let now = Unix.gettimeofday

(* In-process work is timed in process CPU time, which leaves out the
   time the kernel or the hypervisor gives to others.  The jobs are
   single-threaded, so for them it is the host time a user waits for
   on an otherwise idle machine. *)
let cpu = Sys.time

(* linear interpolation between ranks *)
let quantile xs p = if xs = [] then 0.0 else Stats.percentile (Array.of_list xs) p
let median xs = quantile xs 50.0
let sumf f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let sumi f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Host speed *)

(* The host's speed swings by up to 2x for minutes at a time with the
   load of its other tenants, and CPU time swings with it.  A fixed kernel
   that uses no code of the repository (an expression-tree walk, a hash
   table and a map, all allocating) is timed before every job, and every
   host-time figure is reported at the speed of a host on which the
   kernel takes [yardstick_s]: times divided by the run's slowdown, rates
   multiplied by it.  README.md has the measurements behind this. *)
type expr = Num of float | Var of int | Add of expr * expr | Mul of expr * expr | If of expr * expr * expr

let rec expr st depth =
  if depth = 0 then
    if Random.State.bool st then Num (Random.State.float st 2.0) else Var (Random.State.int st 8)
  else
    match Random.State.int st 3 with
    | 0 -> Add (expr st (depth - 1), expr st (depth - 1))
    | 1 -> Mul (expr st (depth - 1), expr st (depth - 1))
    | _ -> If (expr st (depth - 1), expr st (depth - 1), expr st (depth - 1))

let rec eval env = function
  | Num x -> x
  | Var i -> env.(i)
  | Add (a, b) -> eval env a +. eval env b
  | Mul (a, b) -> eval env a *. eval env b
  | If (c, a, b) -> if eval env c > 1.0 then eval env a else eval env b

module Int_map = Map.Make (Int)

let yardstick_tree = expr (Random.State.make [| 3 |]) 10

let yardstick () =
  let acc = ref 0.0 in
  let env = Array.make 8 0.5 in
  for i = 1 to 150 do
    env.(i land 7) <- float_of_int (i land 3) *. 0.4;
    acc := !acc +. eval env yardstick_tree
  done;
  let h = Hashtbl.create 1024 in
  for i = 0 to 30_000 do
    Hashtbl.replace h (i * 7919 land 0xffff) (i, [ i ])
  done;
  for i = 0 to 30_000 do
    match Hashtbl.find_opt h (i land 0xffff) with
    | Some (j, _) -> acc := !acc +. float_of_int j
    | None -> ()
  done;
  let m = ref Int_map.empty in
  for i = 0 to 75_000 do
    m := Int_map.add (i * 7919 land 4095) [ i; i + 1 ] !m;
    match Int_map.find_opt (i land 4095) !m with
    | Some (j :: _) -> acc := !acc +. float_of_int j
    | Some [] | None -> ()
  done;
  !acc

(* the yardstick's CPU seconds on the reference host *)
let yardstick_s = 0.045
let yardstick_samples = ref []

(* time the yardstick from a collected heap *)
let time_yardstick () =
  Gc.compact ();
  let t0 = cpu () in
  ignore (Sys.opaque_identity (yardstick ()));
  yardstick_samples := (cpu () -. t0) :: !yardstick_samples

(* host seconds per reference-host second, from the run's samples *)
let slowdown () =
  match !yardstick_samples with [] -> 1.0 | xs -> median xs /. yardstick_s

(* ------------------------------------------------------------------ *)
(* Workloads *)

(* How the inputs of one app are made from the run's seed. *)
type inputs =
  | Rotate of int
      (** one instance per pass, cycling through that many sub-seeds, so
          that a run samples several inputs while its passes stay short *)
  | Task_target of int
      (** instances at sub-seeds until their sequential task count is
          closest to this target, for apps whose input size swings
          severalfold with the seed *)
  | Fixed_seed of int
      (** the same instance whatever the seed: see README.md on coor-lu *)

type workload = {
  name : string;
  apps : (string * Workloads.scale * inputs) list;  (** each runs on every backend *)
  serve : bool;  (** adds the closed-loop daemon phase *)
}

let backends = [ "sequential"; "runtime"; "simulator" ]

let workloads =
  [
    {
      name = "road-bfs";
      apps = [ ("spec-bfs", Medium, Rotate 4); ("coor-bfs", Medium, Rotate 4) ];
      serve = false;
    };
    {
      name = "rules-sssp-mst";
      apps = [ ("spec-sssp", Small, Rotate 4); ("spec-mst", Medium, Rotate 4) ];
      serve = false;
    };
    {
      name = "kernels-lu-dmr";
      apps = [ ("coor-lu", Medium, Fixed_seed 42); ("spec-dmr", Medium, Task_target 3000) ];
      serve = false;
    };
    { name = "serve-bfs"; apps = [ ("spec-bfs", Small, Rotate 8) ]; serve = true };
  ]

(* instance i of an app uses seed + i * sub_seed_stride *)
let sub_seed_stride = 1_000_003

(* Closed loop: each client sends its next request only after the reply
   to the previous one, as a blocking serve caller does. *)
let serve_clients = 2
let serve_shards = 2
let serve_app, serve_scale, serve_backend = ("spec-bfs", "small", "simulator")

(* p99 needs at least ten samples beyond it *)
let serve_min_replies = 1000
let serve_segments = 5

(* Paths relative to the checkout root, where run.py starts us. *)
let agp = "_build/default/bin/agp_cli.exe"
let out_dir = "perfbench/out"
let setup_repeats = 11

(* ------------------------------------------------------------------ *)
(* Failures and exactness *)

let attempted = ref 0
let failures = ref []
let mismatches = ref []
let fail msg = failures := msg :: !failures

(* job key (app@sub-seed/backend) -> (tasks, cycles), fixed by the first
   run of each job.  Every later run, traced or not, must reproduce it
   exactly. *)
let reference : (string, int * int) Hashtbl.t = Hashtbl.create 16

let expect key ~tasks ~cycles =
  match Hashtbl.find_opt reference key with
  | None -> Hashtbl.add reference key (tasks, cycles)
  | Some (t, c) when t = tasks && c = cycles -> ()
  | Some (t, c) ->
      mismatches :=
        Printf.sprintf "%s: tasks %d cycles %d, first run had tasks %d cycles %d" key tasks
          cycles t c
        :: !mismatches

let describe_exn = function
  | Semantics.Deadlock m -> "deadlock: " ^ m
  | Semantics.Step_limit_exceeded n -> Printf.sprintf "step limit %d exceeded" n
  | Backend.Unsupported { reason; _ } -> "unsupported: " ^ reason
  | e -> "crash: " ^ Printexc.to_string e

(* ------------------------------------------------------------------ *)
(* Spans: kept in memory, written once at exit *)

type span = { id : int; name : string; start : float; stop : float; parent : int; job : int }

let spans = ref []
let next_span = ref 0
let current_span = ref 0
let current_job = ref 0

let span name f =
  incr next_span;
  let id = !next_span and parent = !current_span in
  current_span := id;
  let start = cpu () in
  let close () =
    spans := { id; name; start; stop = cpu (); parent; job = !current_job } :: !spans;
    current_span := parent
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(* self time of each span: its duration minus what its children cover *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let covered = Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) in
      Hashtbl.replace child s.parent (covered +. s.stop -. s.start))
    spans;
  List.map
    (fun s -> (s, s.stop -. s.start -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    spans

(* ------------------------------------------------------------------ *)
(* Jobs *)

(* [key] names the job's input (app, sub-seed, backend); [slot] its
   place in a pass (app, position, backend), which the instances of a
   rotating app share. *)
type job = { key : string; slot : string; sub : int; app : App_instance.t; backend : Backend.t }

type sample = {
  job : job;
  secs : float;
  tasks : int;
  cycles : int;
  stepper : Semantics.report option;
  sim : Accelerator.report option;
}

(* span job ids, one per job key, in order of first run *)
let job_ids : (string, int) Hashtbl.t = Hashtbl.create 16

let job_id j =
  match Hashtbl.find_opt job_ids j.key with
  | Some i -> i
  | None ->
      let i = Hashtbl.length job_ids + 1 in
      Hashtbl.add job_ids j.key i;
      i

let outcomes (s : Engine.stats) = s.Engine.committed + s.Engine.aborted + s.Engine.retried

let layer_of_policy (i : Semantics.interpretation) =
  match i.Semantics.policy with
  | Semantics.Min_first _ -> "semantics.oracle.exec"
  | Semantics.Workers _ -> "semantics.pipelined.exec"
  | Semantics.Domains _ -> "semantics.multicore2.exec"

(* What a user runs: [Backend.run] does fresh instance, execute, check. *)
let exec_untraced job =
  let res = Backend.run job.backend job.app in
  let sim = Backend.simulated_report res in
  ( res.Backend.check,
    Option.value ~default:0 res.Backend.tasks_run,
    Option.fold ~none:0 ~some:(fun (r : Accelerator.report) -> r.Accelerator.cycles) sim,
    Backend.stepper_report res,
    sim )

(* The same steps as [Backend.run], each called through its own layer's
   public function inside a span. *)
let exec_traced job =
  let app = job.app in
  let spec = app.App_instance.spec in
  match job.backend.Backend.interp with
  | Some interp ->
      let r = span "app_instance.fresh" app.App_instance.fresh in
      let rep =
        span (layer_of_policy interp) (fun () ->
            Semantics.run ~initial:r.App_instance.initial interp spec r.App_instance.bindings
              r.App_instance.state)
      in
      let check = span "app_instance.check" r.App_instance.check in
      (check, rep.Semantics.tasks_run, 0, Some rep, None)
  | None ->
      ignore (span "opcode.compile" (fun () -> Opcode.compile spec));
      let config = Backend.derive_config app Config.default in
      let r = span "app_instance.fresh" app.App_instance.fresh in
      let rep =
        span "accelerator.exec" (fun () ->
            Accelerator.run ~engine:Accelerator.Compiled ~config ~auto_size:true ~spec
              ~bindings:r.App_instance.bindings ~state:r.App_instance.state
              ~initial:r.App_instance.initial ())
      in
      let check = span "app_instance.check" r.App_instance.check in
      (check, outcomes rep.Accelerator.engine_stats, rep.Accelerator.cycles, None, Some rep)

(* Each job starts from a collected heap, as it would in a fresh
   process, so that its time does not depend on the garbage the jobs
   before it left behind.  The collection is not timed; the yardstick is
   timed just before it.  Only the samples that keep [reports] hold the
   reports. *)
let run_job ?(reports = true) ~traced job =
  incr attempted;
  time_yardstick ();
  Gc.compact ();
  let t0 = cpu () in
  let result =
    try Ok ((if traced then span "job" (fun () -> exec_traced job) else exec_untraced job))
    with e -> Error (describe_exn e)
  in
  let secs = cpu () -. t0 in
  match result with
  | Error msg ->
      fail (job.key ^ ": " ^ msg);
      None
  | Ok (check, tasks, cycles, stepper, sim) ->
      (match check with Ok () -> () | Error e -> fail (job.key ^ ": check: " ^ e));
      expect job.key ~tasks ~cycles;
      let stepper, sim = if reports then (stepper, sim) else (None, None) in
      Some { job; secs; tasks; cycles; stepper; sim }

(* [total] is the CPU time of the pass's jobs, [wall] the pass's wall
   time including the untimed collections. *)
type pass = { total : float; wall : float; samples : sample list; pass_spans : span list }

let run_pass ~reports ~traced jobs =
  let jobs = List.map (fun j -> (job_id j, j)) jobs in
  let before = !spans in
  spans := [];
  let t0 = now () in
  let run () =
    List.filter_map
      (fun (i, j) ->
        current_job := i;
        run_job ~reports ~traced j)
      jobs
  in
  let samples = if traced then span "pass" run else run () in
  let wall = now () -. t0 in
  let pass_spans = !spans in
  spans := pass_spans @ before;
  { total = sumf (fun s -> s.secs) samples; wall; samples; pass_spans }

(* Passes until [budget] wall seconds would be exceeded by one more
   pass; pass [n] runs [jobs_for n].  Only the first [min_passes] keep
   their reports. *)
let run_passes ~traced ~budget ~min_passes jobs_for =
  let deadline = now () +. budget in
  let rec go acc n last =
    if n >= min_passes && now () +. last > deadline then List.rev acc
    else
      let p = run_pass ~reports:(n < min_passes) ~traced (jobs_for n) in
      go (p :: acc) (n + 1) p.wall
  in
  go [] 0 0.0

(* ------------------------------------------------------------------ *)
(* The serve daemon and its closed-loop clients *)

type daemon = { pid : int; addr : Server.addr }

let live_daemons = ref []

let reap pid = try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill_all () =
  List.iter
    (fun d ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap d.pid)
    !live_daemons;
  live_daemons := []

let start_daemon ~sock =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let addr = Server.Unix_path sock in
  let pid =
    Unix.create_process agp
      [|
        agp; "serve"; "--addr"; "unix:" ^ sock; "--shards"; string_of_int serve_shards;
        "--log-level"; "error";
      |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  let d = { pid; addr } in
  live_daemons := d :: !live_daemons;
  match Loadgen.connect_retry ~attempts:10_000 ~delay_s:0.001 addr with
  | Ok conn ->
      Loadgen.close conn;
      d
  | Error e ->
      kill_all ();
      failwith ("serve daemon did not start: " ^ e)

let stop_daemon d =
  (match Loadgen.shutdown d.addr with
  | Ok _ -> reap d.pid
  | Error e ->
      fail ("serve shutdown: " ^ e);
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap d.pid);
  live_daemons := List.filter (fun x -> x.pid <> d.pid) !live_daemons

type reply = { latency_ms : float; timing : Protocol.timing; batch : int }

(* Request [i] of client [c] asks for sub-seed [subs.((i * clients + c)
   mod k)]: the clients cycle through disjoint halves of the sub-seeds,
   so that two requests in flight never share a workload and the
   scheduler never batches them.  Batching would otherwise depend on
   whether the two clients happen to run in step, which changes from
   run to run.  [expected sub] is the in-process simulator run's (tasks,
   model seconds): the daemon must return exactly the same figures. *)
let serve_phase ~addr ~subs ~budget ~min_replies ~expected =
  let m = Mutex.create () in
  let replies = ref [] and answered = ref 0 in
  let deadline = now () +. budget in
  let hard_deadline = deadline +. 20.0 in
  let more () = now () < deadline || (!answered < min_replies && now () < hard_deadline) in
  let locked f = Mutex.protect m f in
  let client c =
    match Loadgen.connect_retry addr with
    | Error e -> locked (fun () -> fail ("serve connect: " ^ e))
    | Ok conn ->
        (match Loadgen.handshake ~client:"perfbench" conn with
        | Ok (Protocol.Hello_ack _) -> ()
        | Ok _ | Error _ -> locked (fun () -> fail "serve handshake"));
        let rec loop i =
          if locked more then begin
            let id = Printf.sprintf "c%d-%d" c i in
            let sub = subs.(((i * serve_clients) + c) mod Array.length subs) in
            let req =
              Protocol.Run
                {
                  Protocol.id;
                  tenant = Printf.sprintf "client%d" c;
                  app = serve_app;
                  scale = serve_scale;
                  seed = sub;
                  backend = serve_backend;
                  obs = false;
                }
            in
            let t0 = now () in
            let resp =
              match Loadgen.send conn req with
              | () -> Loadgen.recv ~timeout_s:30.0 conn
              | exception e -> Error (Printexc.to_string e)
            in
            let latency_ms = (now () -. t0) *. 1000.0 in
            let continue =
              locked (fun () ->
                  incr attempted;
                  if Result.is_ok resp then incr answered;
                  match resp with
                  | Ok (Protocol.Result o) when o.Protocol.out_id = id -> (
                      match o.Protocol.verdict with
                      | Protocol.Valid ->
                          let got = (o.Protocol.tasks, o.Protocol.seconds) in
                          let tasks, seconds = expected sub in
                          if got <> (Some tasks, Some seconds) then
                            mismatches :=
                              Printf.sprintf "serve %s: tasks/seconds differ from in-process run" id
                              :: !mismatches;
                          replies :=
                            { latency_ms; timing = o.Protocol.timing; batch = o.Protocol.batch }
                            :: !replies;
                          true
                      | v ->
                          fail (Printf.sprintf "serve %s: verdict exit %d" id (Protocol.exit_code v));
                          true)
                  | Ok r ->
                      fail ("serve " ^ id ^ ": " ^ Protocol.write r);
                      true
                  | Error e ->
                      fail ("serve " ^ id ^ " lost: " ^ e);
                      false)
            in
            if continue then loop (i + 1)
          end
        in
        loop 0;
        Loadgen.close conn
  in
  let t0 = now () in
  List.iter Thread.join (List.init serve_clients (Thread.create client));
  (now () -. t0, List.rev !replies)

(* ------------------------------------------------------------------ *)
(* Measurement helpers *)

(* Each slot's samples over the passes, in the order of the first pass. *)
let by_slot passes =
  match passes with
  | [] -> []
  | first :: _ ->
      List.map
        (fun s0 ->
          ( s0.job.slot,
            List.concat_map
              (fun p -> List.filter (fun s -> s.job.slot = s0.job.slot) p.samples)
              passes ))
        first.samples

let slot_median f samples = median (List.map f samples)

(* modelled cycles summed over the distinct inputs the passes ran *)
let sim_cycles passes =
  let seen = Hashtbl.create 16 in
  List.iter (fun p -> List.iter (fun s -> Hashtbl.replace seen s.job.key s.cycles) p.samples) passes;
  Hashtbl.fold (fun _ c acc -> acc + c) seen 0

(* one pass's CPU time: the sum of its slots' medians *)
let pass_cpu passes = sumf (fun (_, ss) -> slot_median (fun s -> s.secs) ss) (by_slot passes)

(* count per CPU second over one backend's slots, from slot medians *)
let rate name count passes =
  let slots =
    List.filter
      (fun (_, ss) -> List.exists (fun s -> s.job.backend.Backend.name = name) ss)
      (by_slot passes)
  in
  ratio
    (sumf (fun (_, ss) -> slot_median (fun s -> float_of_int (count s)) ss) slots)
    (sumf (fun (_, ss) -> slot_median (fun s -> s.secs) ss) slots)

(* a process's CPU time and run-queue wait, in seconds, summed over its
   threads (/proc/PID/task/*/schedstat) *)
let sched_s pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> (0.0, 0.0)
  | tids ->
      Array.fold_left
        (fun (run, wait) tid ->
          match open_in (Printf.sprintf "%s/%s/schedstat" dir tid) with
          | exception Sys_error _ -> (run, wait)
          | ic ->
              let r, w =
                try Scanf.sscanf (input_line ic) "%f %f" (fun r w -> (r /. 1e9, w /. 1e9))
                with _ -> (0.0, 0.0)
              in
              close_in ic;
              (run +. r, wait +. w))
        (0.0, 0.0) tids

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb -> kb /. 1024.0)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Output *)

type metric = { mname : string; value : float; unit_ : string; note : string }

let metric ?(note = "") mname unit_ value = { mname; value; unit_; note }

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_result ~correct ms =
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.mname (json_number m.value)
             m.unit_)
         ms)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted (List.length !failures) body

let write_spans ~path ~workload ~seed ~t_origin =
  let job_keys =
    Hashtbl.fold (fun key i acc -> (i, key) :: acc) job_ids []
    |> List.sort compare
    |> List.map (fun (i, key) -> Json.Obj [ ("id", Json.Int i); ("key", Json.String key) ])
  in
  let span_json s =
    Json.Obj
      [
        ("id", Json.Int s.id);
        ("name", Json.String s.name);
        ("start_s", Json.Float (s.start -. t_origin));
        ("end_s", Json.Float (s.stop -. t_origin));
        ("parent", Json.Int s.parent);
        ("job", Json.Int s.job);
      ]
  in
  let doc =
    Json.Obj
      [
        ("workload", Json.String workload);
        ("seed", Json.Int seed);
        ("jobs", Json.List job_keys);
        ("spans", Json.List (List.rev_map span_json !spans));
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Per-layer figures of a traced run *)

let layer_self passes =
  let names = Hashtbl.create 16 in
  List.iter
    (fun p ->
      List.iter (fun (s, _) -> Hashtbl.replace names s.name ()) (self_times p.pass_spans))
    passes;
  Hashtbl.fold
    (fun name () acc ->
      let per_pass p =
        sumf snd (List.filter (fun (s, _) -> s.name = name) (self_times p.pass_spans))
      in
      (name, median (List.map per_pass passes)) :: acc)
    names []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let count name n = metric name "count" (float_of_int n)

(* A host-time figure at the reference host's speed: times divide by the
   run's slowdown, rates per second multiply by it.  The note keeps the
   raw figure. *)
let at_reference m =
  let k = slowdown () in
  let scaled v = { m with value = v; note = String.trim (Printf.sprintf "%s (raw %.6g)" m.note m.value) } in
  match m.unit_ with
  | "s" | "ms" | "ns" -> scaled (m.value /. k)
  | u when String.ends_with ~suffix:"/s" u -> scaled (m.value *. k)
  | _ -> m

let host_speed () =
  [
    metric "host.yardstick_ms" "ms" ~note:"raw, median over the timings before every job"
      (1000.0 *. median !yardstick_samples);
    metric "host.slowdown" "ratio"
      ~note:(Printf.sprintf "yardstick over its %g ms on the reference host" (yardstick_s *. 1000.0))
      (slowdown ());
  ]

let stepper_layer ~policy ~self samples =
  let layer = "semantics." ^ policy in
  let reps =
    List.filter_map
      (fun s ->
        match s.job.backend.Backend.interp with
        | Some i when layer_of_policy i = layer ^ ".exec" -> s.stepper
        | Some _ | None -> None)
      samples
  in
  let total f = sumi f reps in
  let stat f = total (fun (r : Semantics.report) -> f r.Semantics.stats) in
  let ops = stat (fun st -> st.Engine.ops_executed) in
  [
    metric (layer ^ ".exec_s") "s" self;
    metric (layer ^ ".ns_per_op") "ns" (ratio (self *. 1e9) (float_of_int ops));
    count (layer ^ ".ops_executed") ops;
    count (layer ^ ".events_fired") (stat (fun st -> st.Engine.events_fired));
    count (layer ^ ".rule_allocs") (stat (fun st -> st.Engine.rule_allocs));
  ]
  @
  if policy <> "pipelined" then []
  else
    let steps = total (fun r -> r.Semantics.steps) in
    let busy = sumf (fun r -> r.Semantics.avg_busy *. float_of_int r.Semantics.steps) reps in
    [
      count (layer ^ ".max_waiting")
        (List.fold_left (fun m (r : Semantics.report) -> max m r.Semantics.max_waiting) 0 reps);
      metric (layer ^ ".avg_busy") "workers"
        ~note:(Printf.sprintf "step-weighted over %d ticks" steps)
        (ratio busy (float_of_int steps));
    ]

let useful_frac name stats =
  let committed = sumi (fun (st : Engine.stats) -> st.Engine.committed) stats in
  let total = sumi outcomes stats in
  metric name "ratio"
    ~note:(Printf.sprintf "of %d outcomes" total)
    (ratio (float_of_int committed) (float_of_int total))

let accelerator_layer ~self samples =
  let reps = List.filter_map (fun s -> s.sim) samples in
  let total f = sumi f reps in
  let stat f = total (fun (r : Accelerator.report) -> f r.Accelerator.engine_stats) in
  let cycles = total (fun r -> r.Accelerator.cycles) in
  let events = stat (fun st -> st.Engine.events_fired) in
  let per_cycle f =
    ratio
      (sumf (fun (r : Accelerator.report) -> f r *. float_of_int r.Accelerator.cycles) reps)
      (float_of_int cycles)
  in
  let pipe_cycles = total (fun r -> Attribution.total r.Accelerator.attribution) in
  let frac name b =
    let charged =
      total (fun r ->
          let a = r.Accelerator.attribution in
          sumi (fun (set, _) -> Attribution.get a ~set b) (Attribution.per_set a))
    in
    metric name "ratio"
      ~note:(Printf.sprintf "of %d pipeline-cycles" pipe_cycles)
      (ratio (float_of_int charged) (float_of_int pipe_cycles))
  in
  let accesses r = r.Accelerator.mem_reads + r.Accelerator.mem_writes in
  let hits = sumf (fun r -> r.Accelerator.mem_hit_rate *. float_of_int (accesses r)) reps in
  [
    metric "accelerator.exec_s" "s" self;
    metric "accelerator.ns_per_cycle" "ns"
      ~note:(Printf.sprintf "of %d cycles" cycles)
      (ratio (self *. 1e9) (float_of_int cycles));
    metric "accelerator.ns_per_event" "ns"
      ~note:(Printf.sprintf "of %d events" events)
      (ratio (self *. 1e9) (float_of_int events));
    count "accelerator.events_fired" events;
    count "accelerator.otherwise_fired" (stat (fun st -> st.Engine.otherwise_fired));
    count "accelerator.clause_resolutions" (stat (fun st -> st.Engine.clause_resolutions));
    count "accelerator.rule_allocs" (stat (fun st -> st.Engine.rule_allocs));
    metric "accelerator.minor_words_per_cycle" "words" ~note:"cycle-weighted"
      (per_cycle (fun r -> r.Accelerator.minor_words_per_cycle));
    count "accelerator.peak_in_flight"
      (List.fold_left (fun m (r : Accelerator.report) -> max m r.Accelerator.peak_in_flight) 0 reps);
    useful_frac "accelerator.useful_frac"
      (List.map (fun (r : Accelerator.report) -> r.Accelerator.engine_stats) reps);
    metric "accelerator.utilization" "ratio" ~note:"cycle-weighted"
      (per_cycle (fun r -> r.Accelerator.utilization));
    frac "attribution.busy_frac" Attribution.Busy;
    frac "attribution.mem_frac" Attribution.Mem_stall;
    frac "attribution.rdv_frac" Attribution.Rendezvous_stall;
    frac "attribution.queue_frac" Attribution.Queue_full;
    frac "attribution.squash_frac" Attribution.Squash_waste;
    frac "attribution.idle_frac" Attribution.Idle;
    count "memory.reads" (total (fun r -> r.Accelerator.mem_reads));
    count "memory.writes" (total (fun r -> r.Accelerator.mem_writes));
    metric "memory.hit_rate" "ratio"
      ~note:(Printf.sprintf "of %d accesses" (total accesses))
      (ratio hits (float_of_int (total accesses)));
    metric "memory.bytes_over_link" "B" (float_of_int (total (fun r -> r.Accelerator.bytes_over_link)));
  ]

let serve_layer replies =
  let n = List.length replies in
  let q f p = quantile (List.map f replies) p in
  let note = Printf.sprintf "of %d replies" n in
  [
    metric "admission.queue_ms_p50" "ms" ~note (q (fun r -> r.timing.Protocol.queue_ms) 50.0);
    metric "admission.queue_ms_p99" "ms" ~note (q (fun r -> r.timing.Protocol.queue_ms) 99.0);
    metric "scheduler.build_ms_p50" "ms" ~note (q (fun r -> r.timing.Protocol.build_ms) 50.0);
    metric "scheduler.exec_ms_p50" "ms" ~note (q (fun r -> r.timing.Protocol.exec_ms) 50.0);
    metric "scheduler.exec_ms_p99" "ms" ~note (q (fun r -> r.timing.Protocol.exec_ms) 99.0);
    metric "scheduler.batch_mean" "requests" ~note
      (ratio (float_of_int (sumi (fun r -> r.batch) replies)) (float_of_int n));
    metric "serve.io_ms_p50" "ms" ~note
      (q
         (fun r ->
           let t = r.timing in
           r.latency_ms -. t.Protocol.queue_ms -. t.Protocol.build_ms -. t.Protocol.exec_ms)
         50.0);
    metric "serve.p99_ms" "ms" ~note (q (fun r -> r.latency_ms) 99.0);
  ]

(* ------------------------------------------------------------------ *)
(* Inputs and set-up *)

let backend_of name = match Backend.find name with Ok b -> b | Error e -> failwith e

let find name scale sub =
  match Workloads.find name scale ~seed:sub with Ok app -> app | Error e -> failwith e

let job_key (app : App_instance.t) sub backend =
  Printf.sprintf "%s@%d/%s" app.App_instance.app_name sub backend

(* the jobs of one instance at position [pos] of the pass *)
let jobs_of ~pos (sub, (app : App_instance.t)) =
  List.map
    (fun b ->
      {
        key = job_key app sub b;
        slot = Printf.sprintf "%s#%d/%s" app.App_instance.app_name pos b;
        sub;
        app;
        backend = backend_of b;
      })
    backends

(* Picks the sub-seeds of each position in a pass (see [inputs]): a
   rotating app has one position with several sub-seeds, the others one
   position per instance.  Only a task target runs anything: the
   sequential job of each candidate instance, untimed. *)
let pick_inputs ~seed w =
  let sub i = seed + (i * sub_seed_stride) in
  let pick (name, scale, inputs) =
    match inputs with
    | Fixed_seed s -> [ (name, scale, [ s ]) ]
    | Rotate n -> [ (name, scale, List.init n sub) ]
    | Task_target target ->
        let sequential = backend_of "sequential" in
        let rec grow i tasks acc =
          if i >= 64 || tasks >= target then List.rev acc
          else begin
            let app = find name scale (sub i) in
            let job =
              {
                key = job_key app (sub i) "sequential";
                slot = "";
                sub = sub i;
                app;
                backend = sequential;
              }
            in
            let next = match run_job ~traced:false job with Some s -> s.tasks | None -> 0 in
            (* keep an instance only if it brings the count closer *)
            if i > 0 && tasks + next - target > target - tasks then List.rev acc
            else grow (i + 1) (tasks + next) ((name, scale, [ sub i ]) :: acc)
          end
        in
        grow 0 0 []
  in
  List.concat_map pick w.apps

type setup = {
  setup_s : float;  (** median over the repeats *)
  build_s : float;  (** the [Workloads.find] part of [setup_s] *)
  positions : (int * App_instance.t) array list;
      (** each position's instances, with their sub-seeds *)
  daemon : daemon option;
}

(* Input generation for every job (CPU time, from a collected heap), plus
   daemon start for serve (wall time, since it is another process);
   repeated, keeping the last. *)
let set_up ~sock w inputs =
  let once k =
    Gc.compact ();
    let t0 = cpu () in
    let positions =
      List.map
        (fun (name, scale, subs) -> Array.of_list (List.map (fun sub -> (sub, find name scale sub)) subs))
        inputs
    in
    let found = cpu () -. t0 in
    let t1 = now () in
    let daemon = if w.serve then Some (start_daemon ~sock) else None in
    let dt = found +. (now () -. t1) in
    (match daemon with Some d when k < setup_repeats - 1 -> stop_daemon d | _ -> ());
    (dt, found, positions, daemon)
  in
  let runs = List.init setup_repeats once in
  let _, _, positions, daemon = List.nth runs (setup_repeats - 1) in
  {
    setup_s = median (List.map (fun (dt, _, _, _) -> dt) runs);
    build_s = median (List.map (fun (_, b, _, _) -> b) runs);
    positions;
    daemon;
  }

(* pass [n] runs instance [n mod k] of each position with [k] instances *)
let jobs_for setup n =
  List.concat
    (List.mapi
       (fun pos instances -> jobs_of ~pos instances.(n mod Array.length instances))
       setup.positions)

(* ------------------------------------------------------------------ *)
(* Phases after the timed passes *)

(* The traced run's figures measured outside every timed pass: the
   parallel:2 backend (wall time, since it runs two domains), and the
   simulator's obs report. *)
let traced_extras ~untraced setup =
  let b = backend_of "parallel:2" in
  let multicore =
    sumf
      (fun instances ->
        let sub, app = instances.(0) in
        let j = { key = job_key app sub b.Backend.name; slot = ""; sub; app; backend = b } in
        let t0 = now () in
        match run_job ~traced:true j with Some _ -> now () -. t0 | None -> 0.0)
      setup.positions
  in
  let obs_run j =
    let secs s = if s.job.key = j.key then Some s.secs else None in
    let off = median (List.concat_map (fun p -> List.filter_map secs p.samples) untraced) in
    Gc.compact ();
    let t0 = cpu () in
    match Backend.run ~obs:true j.backend j.app with
    | exception e ->
        fail (j.key ^ " with obs: " ^ describe_exn e);
        (0.0, 0.0, 0)
    | { Backend.obs = None; _ } -> (cpu () -. t0 -. off, 0.0, 0)
    | { Backend.obs = Some r; _ } ->
        let on = cpu () -. t0 in
        let t1 = cpu () in
        let text = Agp_obs.Report.to_string r in
        (on -. off, cpu () -. t1, String.length text)
  in
  let obs =
    List.map obs_run (List.filter (fun j -> j.backend.Backend.interp = None) (jobs_for setup 0))
  in
  [
    metric "semantics.multicore2.exec_s" "s" ~note:"parallel:2, outside the timed passes" multicore;
    metric "report.obs_overhead_s" "s" ~note:"simulator ~obs:true minus ~obs:false"
      (sumf (fun (d, _, _) -> d) obs);
    metric "report.serialize_s" "s" (sumf (fun (_, s, _) -> s) obs);
    metric "report.bytes" "B" (float_of_int (sumi (fun (_, _, b) -> b) obs));
  ]

(* one daemon's share of the serve phase *)
type segment = { elapsed : float; replies : reply list; daemon_rss_mb : float }

(* Warm a daemon up, drive it with the closed loop for [budget] seconds
   and at least [min_replies] replies, stop it. *)
let serve_segment ~subs ~expected ~budget ~min_replies d =
  ignore (serve_phase ~addr:d.addr ~subs ~budget:0.5 ~min_replies:0 ~expected);
  let run0, wait0 = sched_s d.pid in
  let elapsed, replies = serve_phase ~addr:d.addr ~subs ~budget ~min_replies ~expected in
  let run1, wait1 = sched_s d.pid in
  let per x = 1000.0 *. ratio x (float_of_int (List.length replies)) in
  Printf.printf
    "serve segment: %d replies, %.1f req/s; daemon per reply %.2f ms CPU, %.2f ms waiting for a \
     CPU, %.2f ms wall\n"
    (List.length replies)
    (ratio (float_of_int (List.length replies)) elapsed)
    (per (run1 -. run0)) (per (wait1 -. wait0)) (per elapsed);
  let daemon_rss_mb = vm_hwm_mb (string_of_int d.pid) in
  stop_daemon d;
  { elapsed; replies; daemon_rss_mb }

(* The daemon phase runs [serve_segments] daemons one after the other:
   the one from set-up, then fresh ones, and the run reports medians over
   them.  A whole run has been seen to fall into a slower regime, in
   which the daemon idles for a fifth of the time at the same CPU time
   per reply (README.md); with several daemons, one of them in that
   regime does not set the run's figures. *)
let serve_run ~sock ~setup ~deadline ~passes d =
  let subs = Array.map fst (List.hd setup.positions) in
  let samples = List.concat_map (fun p -> p.samples) passes in
  let figures sub =
    let ran s = s.job.sub = sub && s.job.backend.Backend.name = serve_backend in
    match List.find_opt ran samples with
    | Some { tasks; sim = Some r; _ } -> (sub, (tasks, r.Accelerator.seconds))
    | Some _ | None -> (sub, (-1, Float.nan))  (* the in-process run failed: every reply mismatches *)
  in
  let table = List.map figures (Array.to_list subs) in
  let expected sub = List.assoc sub table in
  print_newline ();
  List.init serve_segments (fun k ->
      let d = if k = 0 then d else start_daemon ~sock in
      serve_segment ~subs ~expected
        ~budget:((deadline -. now ()) /. float_of_int (serve_segments - k))
        ~min_replies:(serve_min_replies / serve_segments) d)

(* ------------------------------------------------------------------ *)
(* Reports *)

let end_to_end ~setup ~untraced ~serve =
  Printf.printf "\nCPU seconds per slot over %d passes: median (min-max)\n" (List.length untraced);
  List.iter
    (fun (slot, ss) ->
      let secs = List.map (fun s -> s.secs) ss in
      Printf.printf "  %-30s %10.4f (%.4f-%.4f)\n" slot (median secs)
        (List.fold_left min infinity secs) (List.fold_left max 0.0 secs))
    (by_slot untraced);
  let passes = Printf.sprintf "slot medians over %d passes" (List.length untraced) in
  let rps, lat, rss =
    match serve with
    | Some r ->
        (* medians over the segments' daemons *)
        ( median (List.map (fun g -> ratio (float_of_int (List.length g.replies)) g.elapsed) r),
          List.map (fun g -> quantile (List.map (fun r -> r.latency_ms) g.replies) 50.0) r,
          median (List.map (fun g -> g.daemon_rss_mb) r) )
    | None ->
        (* no daemon: a request is one pass over the job list *)
        ( ratio 1.0 (pass_cpu untraced),
          List.map (fun p -> p.total *. 1000.0) untraced,
          vm_hwm_mb "self" )
  in
  let n =
    match serve with
    | Some r ->
        Printf.sprintf "median over %d daemons, %d replies" (List.length r)
          (sumi (fun g -> List.length g.replies) r)
    | None -> Printf.sprintf "of %d passes" (List.length untraced)
  in
  [
    metric "setup_s" "s" ~note:(Printf.sprintf "median of %d set-ups" setup_repeats) setup.setup_s;
    metric "pass_s" "s" ~note:passes (pass_cpu untraced);
    metric "seq_tasks_per_sec" "tasks/s" ~note:passes (rate "sequential" (fun s -> s.tasks) untraced);
    metric "runtime_tasks_per_sec" "tasks/s" ~note:passes (rate "runtime" (fun s -> s.tasks) untraced);
    metric "sim_cycles_per_host_s" "cycles/s" ~note:passes
      (rate "simulator" (fun s -> s.cycles) untraced);
    metric "sim_cycles" "cycles" ~note:"exact, every input" (float_of_int (sim_cycles untraced));
    metric "peak_rss_mb" "MB"
      ~note:(if serve = None then "VmHWM" else "daemon VmHWM, median over daemons")
      rss;
    metric "serve_rps" "req/s" ~note:n rps;
    metric "serve_p50_ms" "ms" ~note:n (quantile lat 50.0);
  ]

let per_layer ~setup ~untraced ~traced ~extras ~serve =
  let cpu_s = pass_cpu untraced in
  let traced_cpu = pass_cpu traced in
  let selfs = layer_self traced in
  let self name = Option.value ~default:0.0 (List.assoc_opt name selfs) in
  let is_layer n = n <> "pass" && n <> "job" in
  let covered = sumf snd (List.filter (fun (n, _) -> is_layer n) selfs) in
  Printf.printf "\nper-layer self time, raw CPU seconds (median of %d traced passes)\n"
    (List.length traced);
  List.iter
    (fun (n, s) ->
      Printf.printf "  %-34s %12.6f s  %5.1f%% of the traced pass\n"
        (if is_layer n then n else "perfbench." ^ n)
        s
        (100.0 *. ratio s traced_cpu))
    selfs;
  Printf.printf
    "  traced pass %.6f s, untraced %.6f s, overhead %.6f s; layers cover %.1f%%\n"
    traced_cpu cpu_s (traced_cpu -. cpu_s)
    (100.0 *. ratio covered traced_cpu);
  let samples = match traced with p :: _ -> p.samples | [] -> [] in
  let stepper_stats =
    List.filter_map (fun s -> Option.map (fun r -> r.Semantics.stats) s.stepper) samples
  in
  [
    metric "workloads.build_s" "s" ~note:"every input's Workloads.find, median set-up"
      setup.build_s;
    metric "app_instance.fresh_s" "s" (self "app_instance.fresh");
    metric "app_instance.check_s" "s" (self "app_instance.check");
    metric "opcode.compile_s" "s" (self "opcode.compile");
  ]
  @ stepper_layer ~policy:"oracle" ~self:(self "semantics.oracle.exec") samples
  @ stepper_layer ~policy:"pipelined" ~self:(self "semantics.pipelined.exec") samples
  @ [ useful_frac "semantics.useful_frac" stepper_stats ]
  @ accelerator_layer ~self:(self "accelerator.exec") samples
  @ extras
  @ serve_layer (match serve with Some r -> List.concat_map (fun g -> g.replies) r | None -> [])
  @ [
      metric "trace.overhead_s" "s" ~note:"traced minus untraced pass CPU time" (traced_cpu -. cpu_s);
      metric "trace.layer_coverage" "ratio" ~note:"layer self time over traced pass CPU time"
        (ratio covered traced_cpu);
    ]

(* ------------------------------------------------------------------ *)
(* Main *)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  one of the workloads in README.md");
      ("--seed", Arg.Set_int seed, "N  input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S  measured time");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end run (0) or traced per-layer run (1)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let w =
    match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" !workload
          (String.concat ", " (List.map (fun (w : workload) -> w.name) workloads));
        exit 2
  in
  let traced = !trace = 1 and seed = !seed and budget = !seconds in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  at_exit kill_all;
  (* a daemon that dies mid-run must show as lost requests, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t_origin = cpu () in
  let sock = Filename.concat out_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let inputs = pick_inputs ~seed w in
  let setup = set_up ~sock w inputs in
  (* every instance of a rotating position runs at least once *)
  let min_passes = List.fold_left (fun m a -> max m (Array.length a)) 3 setup.positions in
  let deadline = now () +. budget in
  (* A serve run spends most of its time in the daemon phase.  Its
     untraced in-process passes come half before and half after that
     phase, so that they sample the host over the whole run. *)
  let inproc = budget *. if w.serve then 0.4 else 1.0 in
  let passes ~traced share =
    run_passes ~traced ~min_passes ~budget:(inproc *. share) (jobs_for setup)
  in
  let untraced_first = passes ~traced:false (if traced || w.serve then 0.5 else 1.0) in
  let traced_passes = if traced then passes ~traced:true 0.5 else [] in
  let extras = if traced then traced_extras ~untraced:untraced_first setup else [] in
  let serve =
    Option.map (serve_run ~sock ~setup ~deadline ~passes:untraced_first) setup.daemon
  in
  let untraced =
    if w.serve && not traced then untraced_first @ passes ~traced:false 0.5 else untraced_first
  in
  let metrics =
    if traced then
      List.map at_reference (per_layer ~setup ~untraced ~traced:traced_passes ~extras ~serve)
      @ host_speed ()
    else List.map at_reference (end_to_end ~setup ~untraced ~serve)
  in
  Printf.printf
    "\nperfbench %s, seed %d, %d inputs, trace %d (failed_frac %g of %d attempted; host slowdown \
     %.3f)\n"
    w.name seed
    (sumi Array.length setup.positions)
    !trace
    (ratio (float_of_int (List.length !failures)) (float_of_int !attempted))
    !attempted (slowdown ());
  List.iter
    (fun m -> Printf.printf "  %-34s %16.6g %-11s %s\n" m.mname m.value m.unit_ m.note)
    metrics;
  if traced then begin
    let path = Filename.concat out_dir (Printf.sprintf "spans-%s-%d.json" w.name seed) in
    write_spans ~path ~workload:w.name ~seed ~t_origin;
    Printf.printf "  spans written to %s\n" path
  end;
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) (List.rev !failures);
  List.iter (fun f -> Printf.printf "MISMATCH %s\n" f) (List.rev !mismatches);
  print_result ~correct:(!failures = [] && !mismatches = []) metrics;
  if !mismatches <> [] then exit 1
