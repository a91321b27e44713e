(* Differential conformance of the backend registry (the §4.1 criterion
   made executable): every state-mutating backend must agree with the
   sequential oracle on every app, plus the registry/CLI plumbing that
   exposes the matrix. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
module Backend = Agp_backend.Backend
module Conformance = Agp_backend.Conformance
module Workloads = Agp_exp.Workloads
module App_instance = Agp_apps.App_instance
module Runtime = Agp_core.Runtime
module Semantics = Agp_core.Semantics
module Spec = Agp_core.Spec
module Value = Agp_core.Value
module State = Agp_core.State

(* Result-deterministic apps: the committed state is a function of the
   input alone (unique BFS levels; SSSP distances on distinct random
   weights), so conformance can demand bit-identical state, not just a
   passing check.  MST's union-find shape, DMR's mesh and LU's float
   accumulation order are schedule-dependent, so for those the check
   verdict is the equivalence criterion. *)
let state_deterministic (app : App_instance.t) =
  List.mem app.App_instance.app_name [ "SPEC-BFS"; "COOR-BFS"; "SPEC-SSSP" ]

(* The backends-under-test set is derived from the registry itself
   (every validating backend plus pinned parallel:1/2/4 instances) —
   registering a backend opts it into conformance automatically. *)
let backends_under_test = Conformance.matrix_backends ()

let test_matrix () =
  let apps = Workloads.all Workloads.Small ~seed:7 in
  let rows =
    Conformance.matrix ~state_equiv:state_deterministic ~backends:backends_under_test apps
  in
  check Alcotest.int "full matrix ran"
    (List.length apps * List.length backends_under_test)
    (List.length rows);
  (match Conformance.failing rows with
  | [] -> ()
  | bad -> Alcotest.failf "non-conforming cells:\n%s" (Conformance.render bad));
  (* no registered validating backend may silently opt out of the matrix *)
  (match Conformance.missing_from rows with
  | [] -> ()
  | missing ->
      Alcotest.failf "validating backends missing from the matrix: %s"
        (String.concat ", " (List.map (fun (b : Backend.t) -> b.Backend.name) missing)));
  (* the matrix must not silently skip a mutating backend *)
  List.iter
    (fun r ->
      match r.Conformance.outcome with
      | Error (Conformance.Unsupported _) ->
          Alcotest.failf "mutating backend %s skipped %s" r.Conformance.row_backend
            r.Conformance.row_app
      | _ -> ())
    rows

let test_matrix_random_seeds =
  QCheck.Test.make ~name:"registry conforms to the oracle on random workloads" ~count:6
    QCheck.(int_range 0 1000)
    (fun seed ->
      let apps = Workloads.all Workloads.Small ~seed in
      let rows =
        Conformance.matrix ~state_equiv:state_deterministic ~backends:backends_under_test apps
      in
      match Conformance.failing rows with
      | [] -> true
      | bad -> QCheck.Test.fail_reportf "seed %d:\n%s" seed (Conformance.render bad))

(* --- timing models run through the same entry point (acceptance: every
   backend in Backend.all runs every supported app via Backend.run) --- *)

let test_timing_models_run () =
  let apps = Workloads.all Workloads.Small ~seed:7 in
  List.iter
    (fun (b : Backend.t) ->
      if not b.Backend.capabilities.Backend.validates then
        List.iter
          (fun (app : App_instance.t) ->
            match Backend.run b app with
            | exception Backend.Unsupported _ ->
                check Alcotest.bool
                  (Printf.sprintf "%s honestly declines %s" b.Backend.name
                     app.App_instance.app_name)
                  true
                  (Result.is_error (b.Backend.supports app))
            | res ->
                check Alcotest.bool
                  (Printf.sprintf "%s times %s" b.Backend.name app.App_instance.app_name)
                  true
                  (match res.Backend.seconds with
                  | Some s -> s > 0.0
                  | None -> false))
          apps)
    Backend.all

let test_obs_report_capability () =
  let app = Workloads.spec_bfs Workloads.Small ~seed:7 in
  let sim = Backend.simulator () in
  let res = Backend.run ~obs:true sim app in
  (match res.Backend.obs with
  | None -> Alcotest.fail "obs-capable simulator returned no report under ~obs:true"
  | Some doc ->
      check Alcotest.string "report app" app.App_instance.app_name doc.Agp_obs.Report.app;
      (match Agp_obs.Report.of_string (Agp_obs.Report.to_string doc) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "backend obs report does not reparse: %s" e));
  let res' = Backend.run sim app in
  check Alcotest.bool "no report unless asked" true (res'.Backend.obs = None);
  let seq = Backend.run ~obs:true Backend.sequential app in
  check Alcotest.bool "non-obs backend ignores ~obs" true (seq.Backend.obs = None)

(* --- registry lookup --- *)

let test_registry_find () =
  check
    Alcotest.(list string)
    "registry order"
    [ "sequential"; "runtime"; "parallel"; "simulator"; "cpu-1core"; "cpu-10core"; "opencl" ]
    Backend.names;
  let name s =
    match Backend.find s with
    | Ok b -> b.Backend.name
    | Error e -> "error: " ^ e
  in
  check Alcotest.string "plain name" "runtime" (name "runtime");
  check Alcotest.string "fpga aliases simulator" "simulator" (name "fpga");
  (* there is one cycle engine: engine-suffixed names are unknown backends *)
  List.iter
    (fun gone ->
      match Backend.find gone with
      | Ok _ -> Alcotest.failf "%s resolved to a backend" gone
      | Error e ->
          check Alcotest.bool (gone ^ " gets the unknown-backend error") true
            (Astring.String.is_prefix ~affix:(Printf.sprintf "unknown backend %S" gone) e);
          check Alcotest.bool (gone ^ " suggests simulator") true
            (Astring.String.is_infix ~affix:"did you mean \"simulator\"?" e))
    (List.map (fun engine -> "simulator:" ^ engine) [ "classic"; "compiled" ]);
  check Alcotest.string "parameterized workers" "runtime:3" (name "runtime:3");
  check Alcotest.string "parameterized domains" "parallel:2" (name "parallel:2");
  List.iter
    (fun bad ->
      check Alcotest.bool (Printf.sprintf "%S rejected" bad) true
        (Result.is_error (Backend.find bad)))
    [ "nosuch"; "runtime:0"; "runtime:-1"; "runtime:x"; "parallel:"; "simulator:4"; "" ]

(* --- exact timing pins: the cycle engine's cycles, engine statistics,
   peak occupancy, memory traffic, stall attribution and event stream
   for every app at three seeds, checked in as golden/engine-pins.json.
   The conformance matrix holds the simulator's semantics to the
   oracle; these hold its timing, with exact equality.  When a model
   change is meant to move the timing, the failure message prints the
   new pin line to paste into the file. --- *)

module Accelerator = Agp_hw.Accelerator
module Json = Agp_obs.Json

(* cwd is _build/default/test under dune runtest; test/golden/ when
   launched from the repo root by hand *)
let golden_file name =
  List.find_opt Sys.file_exists
    [ Filename.concat "golden" name; Filename.concat (Filename.concat "test" "golden") name ]

let pin_seeds = [ 7; 42; 977 ]

(* One line per event: "ts kind field field ...".  Built with Buffer
   rather than Printf, which would dominate the test's run time. *)
let add_event_line b (ts, (ev : Agp_obs.Event.t)) =
  let str s =
    Buffer.add_char b ' ';
    Buffer.add_string b s
  in
  let int n = str (string_of_int n) in
  Buffer.add_string b (string_of_int ts);
  str (Agp_obs.Event.kind ev);
  (match ev with
  | Task_dispatch { set; pipe; tid } | Rendezvous_park { set; pipe; tid } ->
      str set;
      int pipe;
      int tid
  | Task_finish { set; pipe; tid; outcome } ->
      str set;
      int pipe;
      int tid;
      str (Agp_obs.Event.outcome_name outcome)
  | Rendezvous_resume { set; tid } ->
      str set;
      int tid
  | Queue_full { set; pipe } ->
      str set;
      int pipe
  | Cache_access { addr; is_write; hit } ->
      int addr;
      str (string_of_bool is_write);
      str (string_of_bool hit)
  | Link_transfer { bytes; start; finish } ->
      int bytes;
      int start;
      int finish
  | Arb_grant { bank; port } ->
      int bank;
      int port);
  Buffer.add_char b '\n'

let events_digest evs =
  let b = Buffer.create (1 lsl 20) in
  List.iter (add_event_line b) evs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The pin of one run, in the file's field order. *)
let pin_of_run ~seed (app : App_instance.t) =
  let r = app.App_instance.fresh () in
  let config = Backend.derive_config app Agp_hw.Config.default in
  let sink = Agp_obs.Sink.collect () in
  let report =
    Accelerator.run ~config ~sink ~spec:app.App_instance.spec
      ~bindings:r.App_instance.bindings ~state:r.App_instance.state
      ~initial:r.App_instance.initial ()
  in
  let evs = Agp_obs.Sink.events sink in
  let es = report.Accelerator.engine_stats in
  let int n = Json.Int n in
  Json.Obj
    [
      ("app", Json.String app.App_instance.app_name);
      ("seed", int seed);
      ("cycles", int report.Accelerator.cycles);
      ( "engine_stats",
        Json.Obj
          Agp_core.Engine.
            [
              ("activated", int es.activated);
              ("committed", int es.committed);
              ("aborted", int es.aborted);
              ("retried", int es.retried);
              ("events_fired", int es.events_fired);
              ("otherwise_fired", int es.otherwise_fired);
              ("clause_resolutions", int es.clause_resolutions);
              ("ops_executed", int es.ops_executed);
              ("rule_allocs", int es.rule_allocs);
            ] );
      ("peak_in_flight", int report.Accelerator.peak_in_flight);
      ("mem_reads", int report.Accelerator.mem_reads);
      ("mem_writes", int report.Accelerator.mem_writes);
      ("bytes_over_link", int report.Accelerator.bytes_over_link);
      ( "attribution",
        Json.Obj
          (List.map
             (fun (set, bs) ->
               ( set,
                 Json.Obj (List.map (fun (b, n) -> (Agp_obs.Attribution.bucket_name b, int n)) bs)
               ))
             (Agp_obs.Attribution.per_set report.Accelerator.attribution)) );
      ("events", int (List.length evs));
      ("events_digest", Json.String (events_digest evs));
    ]

(* Field-by-field comparison; [] when the run matches its pin exactly. *)
let pin_faults ~pinned ~actual =
  let fields = function
    | Json.Obj kvs -> kvs
    | _ -> []
  in
  let act = fields actual in
  let key_faults =
    if List.map fst (fields pinned) = List.map fst act then []
    else [ "pin fields differ from the computed fields" ]
  in
  key_faults
  @ List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k act with
        | Some got when got = v -> None
        | got ->
            Some
              (Printf.sprintf "%s: pinned %s vs run %s" k (Json.to_string v)
                 (Json.to_string (Option.value ~default:Json.Null got))))
      (fields pinned)

let load_pins () =
  match golden_file "engine-pins.json" with
  | None -> Alcotest.fail "golden/engine-pins.json not found"
  | Some path -> (
      let text = In_channel.with_open_bin path In_channel.input_all in
      match Json.parse text with
      | Ok (Json.List pins) -> pins
      | Ok _ -> Alcotest.fail "engine-pins.json is not a list"
      | Error e -> Alcotest.failf "engine-pins.json: %s" e)

let test_engine_pins () =
  let pins = load_pins () in
  let key pin =
    ( Option.bind (Json.member "app" pin) Json.to_str,
      Option.bind (Json.member "seed" pin) Json.to_int )
  in
  let faults =
    List.concat_map
      (fun seed ->
        List.filter_map
          (fun (app : App_instance.t) ->
            let actual = pin_of_run ~seed app in
            let id = (Some app.App_instance.app_name, Some seed) in
            let report fs =
              Some
                (Printf.sprintf "%s seed %d:\n  %s\n  run's pin line: %s"
                   app.App_instance.app_name seed (String.concat "\n  " fs)
                   (Json.to_string actual))
            in
            match List.find_opt (fun p -> key p = id) pins with
            | None -> report [ "no pin" ]
            | Some pinned -> (
                match pin_faults ~pinned ~actual with
                | [] -> None
                | fs -> report fs))
          (Workloads.all Workloads.Small ~seed))
      pin_seeds
  in
  check Alcotest.int "one pin per app and seed"
    (List.length pin_seeds * List.length Workloads.app_names)
    (List.length pins);
  match faults with
  | [] -> ()
  | fs -> Alcotest.failf "cycle engine drifts from its pins:\n%s" (String.concat "\n" fs)

(* --- the reference evaluator against the stepper: random expressions
   must store bit-for-bit the same float cell under Interp's tree walk
   (through State.write) and under the stepper's postfix code on the
   simulator — including the error cases, whose messages come from the
   single Agp_core.Binop table --- *)

let binop_str (op : Spec.binop) =
  match op with
  | Spec.Add -> "+"
  | Spec.Sub -> "-"
  | Spec.Mul -> "*"
  | Spec.Div -> "/"
  | Spec.Rem -> "%"
  | Spec.Min -> "min"
  | Spec.Max -> "max"
  | Spec.Eq -> "=="
  | Spec.Ne -> "!="
  | Spec.Lt -> "<"
  | Spec.Le -> "<="
  | Spec.Gt -> ">"
  | Spec.Ge -> ">="
  | Spec.And -> "&&"
  | Spec.Or -> "||"

let rec expr_str (e : Spec.expr) =
  match e with
  | Spec.Const v -> Value.to_string v
  | Spec.Param i -> Printf.sprintf "p%d" i
  | Spec.Var v -> v
  | Spec.Binop (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (expr_str a) (binop_str op) (expr_str b)
  | Spec.Not e -> "!" ^ expr_str e
  | Spec.Neg e -> "-" ^ expr_str e

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> Value.Int n) (int_range (-4) 4);
        map (fun f -> Value.Float f) (oneofl [ -2.5; -1.0; 0.0; 0.5; 1.0; 3.25 ]);
        map (fun b -> Value.Bool b) bool;
      ])

let binop_gen =
  QCheck.Gen.oneofl
    Spec.[ Add; Sub; Mul; Div; Rem; Min; Max; Eq; Ne; Lt; Le; Gt; Ge; And; Or ]

let expr_gen =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           if n <= 0 then
             oneof
               [
                 map (fun v -> Spec.Const v) value_gen;
                 map (fun i -> Spec.Param i) (int_range 0 3);
               ]
           else
             frequency
               [
                 (1, map (fun v -> Spec.Const v) value_gen);
                 (1, map (fun i -> Spec.Param i) (int_range 0 3));
                 ( 4,
                   map3
                     (fun op a b -> Spec.Binop (op, a, b))
                     binop_gen
                     (self (n / 2))
                     (self (n / 2)) );
                 (1, map (fun e -> Spec.Not e) (self (n - 1)));
                 (1, map (fun e -> Spec.Neg e) (self (n - 1)));
               ]))

let expr_case =
  QCheck.make
    ~print:(fun (e, payload) ->
      Printf.sprintf "%s on [%s]" (expr_str e)
        (String.concat "; " (List.map Value.to_string payload)))
    QCheck.Gen.(pair expr_gen (list_size (return 4) value_gen))

let expr_spec e : Spec.t =
  {
    Spec.spec_name = "binop-eq";
    task_sets =
      [
        {
          Spec.ts_name = "t";
          ts_order = Spec.For_each;
          arity = 4;
          body = [ Spec.Store ("out", Spec.int 0, e) ];
        };
      ];
    rules = [];
  }

(* The out cell is a float array: Int stores widen, Bool stores raise
   State's type mismatch, and float results land with their exact
   bits. *)
let out_cell () =
  let st = State.create () in
  State.add_float_array st "out" [| 0.0 |];
  st

let out_bits st = Int64.bits_of_float (State.float_array st "out").(0)

let eval_reference e payload =
  let st = out_cell () in
  match
    State.write st "out" 0 (Agp_core.Interp.eval_expr (Hashtbl.create 1) (Array.of_list payload) e)
  with
  | () -> Ok (out_bits st)
  | exception e -> Error (Printexc.to_string e)

let eval_compiled e payload =
  let st = out_cell () in
  match
    Accelerator.run ~spec:(expr_spec e) ~bindings:Spec.no_bindings ~state:st
      ~initial:[ ("t", payload) ] ()
  with
  | _ -> Ok (out_bits st)
  | exception e -> Error (Printexc.to_string e)

let outcome_str = function
  | Ok bits -> Printf.sprintf "Ok %.17g (bits %Lx)" (Int64.float_of_bits bits) bits
  | Error e -> "Error: " ^ e

let test_reference_evaluator_agrees =
  QCheck.Test.make ~name:"reference evaluator and stepper store the same bits"
    ~count:150 expr_case
    (fun (e, payload) ->
      let t = eval_reference e payload in
      let c = eval_compiled e payload in
      if t = c then true
      else
        QCheck.Test.fail_reportf "reference %s\nvs stepper %s" (outcome_str t)
          (outcome_str c))

let test_binop_error_cases () =
  let module Interp = Agp_core.Interp in
  Alcotest.check_raises "division by zero" (Invalid_argument "Interp: division by zero")
    (fun () -> ignore (Interp.eval_binop Spec.Div (Value.Int 1) (Value.Int 0)));
  Alcotest.check_raises "modulo by zero" (Invalid_argument "Interp: modulo by zero")
    (fun () -> ignore (Interp.eval_binop Spec.Rem (Value.Int 1) (Value.Int 0)));
  Alcotest.check_raises "bool arithmetic operand"
    (Invalid_argument "Interp: bad operands for arithmetic") (fun () ->
      ignore (Interp.eval_binop Spec.Add (Value.Bool true) (Value.Int 1)));
  Alcotest.check_raises "bool comparison operand"
    (Invalid_argument "Interp: bad operands for comparison") (fun () ->
      ignore (Interp.eval_binop Spec.Lt (Value.Bool true) (Value.Int 1)));
  Alcotest.check_raises "non-bool connective operand"
    (Invalid_argument "Value.to_bool: 1") (fun () ->
      ignore (Interp.eval_binop Spec.And (Value.Int 1) (Value.Bool true)));
  (* the stepper must surface the very same messages end-to-end *)
  List.iter
    (fun e ->
      let payload = [ Value.Int 0; Value.Int 0; Value.Int 0; Value.Int 0 ] in
      let t = eval_reference e payload and c = eval_compiled e payload in
      check Alcotest.bool (Printf.sprintf "evaluators agree on %s" (expr_str e)) true
        (t = c && Result.is_error t))
    Spec.
      [
        Binop (Div, int 1, int 0);
        Binop (Rem, int 1, int 0);
        Binop (Add, Const (Value.Bool true), int 1);
        Binop (And, int 1, Const (Value.Bool true));
      ]

(* --- the stepper is the substrate (tentpole acceptance): a new
   software backend is an interpretation record, nothing more.  A
   throwaway counting interpretation must pass full conformance
   including bit-identical state --- *)

let test_counting_interpretation () =
  let app = Workloads.spec_bfs Workloads.Small ~seed:7 in
  let events = ref 0 in
  let finished = ref 0 in
  let hooks =
    {
      Semantics.on_event =
        (fun ~tick:_ ~worker:_ _ ev ->
          incr events;
          match ev with
          | Semantics.Finished _ -> incr finished
          | _ -> ());
    }
  in
  let counting =
    Backend.of_interpretation ~name:"counting"
      ~summary:"test-only counting interpretation (hooks over the pipelined policy)"
      (Semantics.with_hooks (Semantics.pipelined ~workers:3 ()) hooks)
  in
  (match Conformance.check ~state_equiv:true counting app with
  | Ok () -> ()
  | Error f ->
      Alcotest.failf "counting interpretation does not conform: %s"
        (Conformance.failure_to_string f));
  check Alcotest.bool "hooks observed the run" true (!events > 0);
  check Alcotest.bool "hooks saw task completions" true (!finished > 0)

(* --- typed liveness exceptions (satellite: no more stringly Failure) --- *)

(* Two rendezvous whose resolution orders point at each other.  Both
   waiters live in one for-each set so their stamps (and hence indices)
   are distinct — separate sets would give every first push the same
   all-zero index, making each waiter "minimal" and firing otherwise.
   Task 0 broadcasts before awaiting a [Min_uncommitted] rendezvous, so
   it retires from the uncommitted order and the minimum becomes task 1;
   task 1 awaits a [Min_waiting] rendezvous but task 0 parks ahead of it
   in the waiting order.  Neither is ever its scope's minimum, so
   neither otherwise clause can fire: a genuine rule-resolution cycle. *)
let deadlock_spec : Spec.t =
  let rendezvous name scope =
    {
      Spec.rule_name = name;
      n_params = 0;
      clauses = [];
      otherwise = false;
      scope;
      counted = false;
    }
  in
  let eq_role n = Spec.Binop (Spec.Eq, Spec.Param 0, Spec.int n) in
  {
    Spec.spec_name = "rendezvous-cycle";
    task_sets =
      [
        {
          Spec.ts_name = "t";
          ts_order = Spec.For_each;
          arity = 1;
          body =
            [
              Spec.If
                ( eq_role 0,
                  [
                    Spec.Emit ("done", []);
                    Spec.Alloc ("h", "r_unc", []);
                    Spec.Await ("v", "h");
                  ],
                  [
                    Spec.If
                      ( eq_role 1,
                        [ Spec.Alloc ("h", "r_wait", []); Spec.Await ("v", "h") ],
                        [] (* fillers: commit immediately *) );
                  ] );
            ];
        };
      ];
    rules = [ rendezvous "r_unc" Spec.Min_uncommitted; rendezvous "r_wait" Spec.Min_waiting ];
  }

let deadlock_initial fillers =
  [ ("t", [ Value.Int 0 ]); ("t", [ Value.Int 1 ]) ]
  @ List.init fillers (fun _ -> ("t", [ Value.Int 2 ]))

let test_deadlock_typed =
  QCheck.Test.make
    ~name:"rendezvous cycles raise typed Deadlock at any worker count" ~count:12
    QCheck.(pair (int_range 1 8) (int_range 0 5))
    (fun (workers, fillers) ->
      let workers = max 1 workers and fillers = max 0 fillers in
      match
        Runtime.run ~initial:(deadlock_initial fillers) ~workers deadlock_spec
          Spec.no_bindings (State.create ())
      with
      | exception Runtime.Deadlock _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "workers %d: expected Deadlock, got %s" workers
            (Printexc.to_string e)
      | _ -> QCheck.Test.fail_reportf "workers %d: a rendezvous cycle cannot quiesce" workers)

let test_step_limit_random_budgets =
  QCheck.Test.make ~name:"tiny step budgets raise typed Step_limit_exceeded" ~count:8
    QCheck.(int_range 1 5)
    (fun budget ->
      let app = Workloads.spec_bfs Workloads.Small ~seed:7 in
      let r = app.App_instance.fresh () in
      match
        Runtime.run ~initial:r.App_instance.initial ~max_steps:budget app.App_instance.spec
          r.App_instance.bindings r.App_instance.state
      with
      | exception Runtime.Step_limit_exceeded n -> n = budget
      | exception e ->
          QCheck.Test.fail_reportf "budget %d: expected Step_limit_exceeded, got %s" budget
            (Printexc.to_string e)
      | _ -> QCheck.Test.fail_reportf "budget %d cannot complete SPEC-BFS" budget)

let test_exceptions_shared_with_semantics () =
  (* Runtime re-exports the Semantics constructors: one exception, two
     names, every existing handler keeps matching. *)
  check Alcotest.bool "Deadlock rebound" true
    (Runtime.Deadlock "x" = Semantics.Deadlock "x");
  check Alcotest.bool "Step_limit_exceeded rebound" true
    (Runtime.Step_limit_exceeded 7 = Semantics.Step_limit_exceeded 7);
  match Semantics.run (Semantics.pipelined ~workers:2 ())
          ~initial:(deadlock_initial 0) deadlock_spec Spec.no_bindings (State.create ())
  with
  | exception Runtime.Deadlock _ -> ()
  | exception e -> Alcotest.failf "expected Deadlock, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "rendezvous cycle cannot quiesce"

let test_step_limit_typed () =
  let app = Workloads.spec_bfs Workloads.Small ~seed:7 in
  let r = app.App_instance.fresh () in
  match
    Runtime.run ~initial:r.App_instance.initial ~max_steps:1 app.App_instance.spec
      r.App_instance.bindings r.App_instance.state
  with
  | exception Runtime.Step_limit_exceeded n ->
      check Alcotest.int "exception carries the exhausted budget" 1 n
  | exception e -> Alcotest.failf "expected Step_limit_exceeded, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "a 1-step budget cannot complete SPEC-BFS"

let test_conformance_classifies_liveness () =
  (* a backend that diverges must be classified Liveness, not Crash *)
  let app = Workloads.spec_bfs Workloads.Small ~seed:7 in
  let starved =
    {
      (Backend.runtime ()) with
      Backend.name = "starved";
      Backend.exec =
        (fun ~obs:_ (app : App_instance.t) ->
          let r = app.App_instance.fresh () in
          ignore
            (Runtime.run ~initial:r.App_instance.initial ~max_steps:1 app.App_instance.spec
               r.App_instance.bindings r.App_instance.state);
          assert false);
    }
  in
  match Conformance.check starved app with
  | Error (Conformance.Liveness _) -> ()
  | Error f -> Alcotest.failf "expected Liveness, got %s" (Conformance.failure_to_string f)
  | Ok () -> Alcotest.fail "starved backend cannot conform"

(* A hand-written spec as a runnable app: a one-cell int array "out"
   and the given initial tasks; the check is vacuous, callers compare
   final states themselves. *)
let hand_app ~initial (spec : Spec.t) : App_instance.t =
  {
    App_instance.app_name = spec.Spec.spec_name;
    spec;
    fresh =
      (fun () ->
        let state = State.create () in
        State.add_int_array state "out" [| 0 |];
        { App_instance.state; bindings = Spec.no_bindings; initial; check = (fun () -> Ok ()) });
    kernel_flops = [];
    fpga_ilp = 8;
    sw_task_overhead = 40;
    cpu_flops_per_cycle = 4.0;
    fpga_mlp = 4;
    graph_source = None;
  }

let test_simulator_deadlock_typed () =
  let cyclic = hand_app ~initial:(deadlock_initial 2) deadlock_spec in
  let sim = Backend.simulator () in
  (match Backend.run sim cyclic with
  | exception Semantics.Deadlock _ -> ()
  | exception e -> Alcotest.failf "expected Deadlock, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "a rendezvous cycle cannot quiesce on the simulator");
  (* The oracle cannot run the cycle either, so the conformance cell
     pairs a conforming app's oracle with a simulator run of the cycle
     (the shape of the starved-backend test above). *)
  let app = Workloads.spec_bfs Workloads.Small ~seed:7 in
  let stuck = { sim with Backend.exec = (fun ~obs _ -> sim.Backend.exec ~obs cyclic) } in
  match Conformance.check stuck app with
  | Error (Conformance.Liveness _) -> ()
  | Error f -> Alcotest.failf "expected Liveness, got %s" (Conformance.failure_to_string f)
  | Ok () -> Alcotest.fail "a deadlocked simulator cannot conform"

(* The oracle's liveness failures are typed too: [agp run --backend
   sequential] maps them to exit 3 like every other backend. *)
let test_sequential_deadlock_typed () =
  let cyclic = hand_app ~initial:(deadlock_initial 0) deadlock_spec in
  (match Backend.run Backend.sequential cyclic with
  | exception Semantics.Deadlock _ -> ()
  | exception e -> Alcotest.failf "expected Deadlock, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "a rendezvous cycle cannot quiesce under the oracle");
  (* and conformance files the oracle's deadlock as a liveness failure *)
  match Conformance.check (Backend.runtime ()) cyclic with
  | Error (Conformance.Liveness msg) ->
      check Alcotest.bool "the oracle is named" true (String.starts_with ~prefix:"oracle: " msg)
  | Error f -> Alcotest.failf "expected Liveness, got %s" (Conformance.failure_to_string f)
  | Ok () -> Alcotest.fail "a rendezvous cycle cannot conform"

let test_sequential_task_budget_typed () =
  let app = Workloads.spec_bfs Workloads.Small ~seed:7 in
  let r = app.App_instance.fresh () in
  match
    Agp_core.Sequential.run ~initial:r.App_instance.initial ~max_tasks:1 app.App_instance.spec
      r.App_instance.bindings r.App_instance.state
  with
  | exception Semantics.Step_limit_exceeded n ->
      check Alcotest.int "exception carries the exhausted budget" 1 n
  | exception e -> Alcotest.failf "expected Step_limit_exceeded, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "a 1-task budget cannot complete SPEC-BFS"

(* --- keyed rule dispatch falls back to the full scan on non-int events.
   The waiter W (set t, index 1) allocates a rule keyed on
   [Earlier && F0 = P0] with the int param 5, activates a child in set
   u carrying [field], and parks.  The emitter E (index 0) first waits
   out a cache miss, then activates its own u child with [field]: an
   activation earlier than W, so a matching field resolves W's rule
   false and W retries; on its next attempt W is minimal and the
   otherwise path stores 1.  The oracle runs E to completion before W
   starts, so it never sees the earlier activation, but it evaluates
   W's own child's activation against the live rule, which raises on a
   bool field just as the simulator must. --- *)

let keyed_fallback_spec (field : Value.t) : Spec.t =
  let open Spec in
  let child = Push ("u", [ Const field ]) in
  {
    spec_name = "keyed-fallback";
    task_sets =
      [
        {
          ts_name = "t";
          ts_order = For_each;
          arity = 1;
          body =
            [
              If
                ( Binop (Eq, Param 0, int 0),
                  [ Load ("x", "out", int 0); child ],
                  [
                    Alloc ("h", "key", [ int 5 ]);
                    child;
                    Await ("v", "h");
                    If (Var "v", [ Store ("out", int 0, int 1) ], [ Retry ]);
                  ] );
            ];
        };
        { ts_name = "u"; ts_order = For_each; arity = 1; body = [] };
      ];
    rules =
      [
        {
          rule_name = "key";
          n_params = 1;
          clauses =
            [
              {
                on = On_activated "u";
                condition = CBinop (And, CEarlier, CBinop (Eq, CField 0, CParam 0));
                action = Return_bool false;
              };
            ];
          otherwise = true;
          scope = Min_uncommitted;
          counted = false;
        };
      ];
  }

(* final out cell and retry count, or the error string *)
let run_keyed_fallback (b : Backend.t) field =
  let app =
    hand_app ~initial:[ ("t", [ Value.Int 0 ]); ("t", [ Value.Int 1 ]) ] (keyed_fallback_spec field)
  in
  match Backend.run b app with
  | { Backend.final = Some r; engine_stats = Some es; _ } ->
      Ok ((State.int_array r.App_instance.state "out").(0), es.Agp_core.Engine.retried)
  | _ -> Error "no final state"
  | exception e -> Error (Printexc.to_string e)

let test_keyed_fallback_exact () =
  let outcome = Alcotest.(result (pair int int) string) in
  let seq field = run_keyed_fallback Backend.sequential field in
  let sim field = run_keyed_fallback (Backend.simulator ()) field in
  (* 5 = 5.0 under numeric promotion: the float activation must reach
     the keyed instance and squash W once; the int one takes the keyed
     path to the same place *)
  List.iter
    (fun (name, field) ->
      check outcome ("sequential, " ^ name ^ " field") (Ok (1, 0)) (seq field);
      check outcome ("simulator, " ^ name ^ " field") (Ok (1, 1)) (sim field))
    [ ("float", Value.Float 5.0); ("int", Value.Int 5) ];
  (* a bool field against an int param is a comparison type error *)
  let raised = Error (Printexc.to_string (Invalid_argument "Interp: bad operands for comparison")) in
  check outcome "sequential raises on bool vs int" raised (seq (Value.Bool true));
  check outcome "simulator raises the same error" raised (sim (Value.Bool true))

(* --- check_both double fault (satellite: no first-failure short-circuit) --- *)

let test_check_both_reports_both_modes () =
  let base = Workloads.spec_bfs Workloads.Small ~seed:7 in
  let sabotaged which =
    {
      base with
      App_instance.fresh =
        (fun () ->
          let r = base.App_instance.fresh () in
          { r with App_instance.check = (fun () -> Error which) });
    }
  in
  (match App_instance.check_both (sabotaged "forced failure") with
  | Ok () -> Alcotest.fail "sabotaged check cannot pass"
  | Error msg ->
      let has affix = Astring.String.is_infix ~affix msg in
      check Alcotest.bool "reports the sequential mode" true (has "sequential: forced failure");
      check Alcotest.bool "reports the runtime mode" true (has "runtime: forced failure");
      check Alcotest.bool "joins both faults" true (has "; "));
  check Alcotest.bool "healthy app still passes" true (App_instance.check_both base = Ok ())

(* --- CLI integration: the run/backends subcommands and the golden gate --- *)

let cli_exe = Filename.concat (Filename.concat Filename.parent_dir_name "bin") "agp_cli.exe"

let test_cli_run_backend_and_golden_diff () =
  if not (Sys.file_exists cli_exe) then ()
  else begin
    let tmp = Filename.temp_file "agp_run" ".json" in
    let sh fmt = Printf.ksprintf (fun s -> Sys.command (s ^ " >/dev/null 2>&1")) fmt in
    check Alcotest.int "agp backends exits 0" 0 (sh "%s backends" cli_exe);
    check Alcotest.int "agp run --backend simulator --report exits 0" 0
      (sh "%s run spec-bfs --scale small --backend simulator --report %s" cli_exe tmp);
    (match golden_file "spec-bfs-small.report.json" with
    | Some golden ->
        check Alcotest.int "report accepted by the golden diff gate" 0
          (sh "%s diff %s %s --threshold 0.25" cli_exe golden tmp)
    | None -> Alcotest.fail "golden report not found (dep on golden/*.json missing?)");
    check Alcotest.int "runtime backend via CLI exits 0" 0
      (sh "%s run spec-bfs --scale small --backend runtime:2" cli_exe);
    check Alcotest.int "unknown backend exits 1" 1
      (sh "%s run spec-bfs --scale small --backend nosuch" cli_exe);
    (* liveness failures map to the dedicated exit code, not a crash *)
    check Alcotest.int "exhausted step budget exits 3" 3
      (sh "%s run spec-bfs --scale small --backend runtime --max-steps 1" cli_exe);
    check Alcotest.int "--max-steps on a budgetless backend exits 1" 1
      (sh "%s run spec-bfs --scale small --backend sequential --max-steps 1" cli_exe);
    check Alcotest.int "report on non-obs backend exits 1" 1
      (sh "%s run spec-bfs --scale small --backend sequential --report %s" cli_exe tmp);
    check Alcotest.int "unsupported app/backend pair exits 1" 1
      (sh "%s run spec-dmr --scale small --backend opencl" cli_exe);
    Sys.remove tmp
  end

let () =
  Alcotest.run "agp_backend"
    [
      ( "conformance",
        [
          Alcotest.test_case "matrix: apps x mutating backends" `Quick test_matrix;
          qtest test_matrix_random_seeds;
          Alcotest.test_case "liveness classified, not crashed" `Quick
            test_conformance_classifies_liveness;
          Alcotest.test_case "compiled engine matches its pins" `Quick test_engine_pins;
        ] );
      ( "semantics",
        [
          qtest test_reference_evaluator_agrees;
          Alcotest.test_case "shared binop error messages" `Quick test_binop_error_cases;
          Alcotest.test_case "a substrate is an interpretation record" `Quick
            test_counting_interpretation;
          qtest test_deadlock_typed;
          qtest test_step_limit_random_budgets;
          Alcotest.test_case "Runtime exceptions are the Semantics exceptions" `Quick
            test_exceptions_shared_with_semantics;
        ] );
      ( "registry",
        [
          Alcotest.test_case "find and parameterized names" `Quick test_registry_find;
          Alcotest.test_case "timing models run uniformly" `Quick test_timing_models_run;
          Alcotest.test_case "obs report on request" `Quick test_obs_report_capability;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "step limit is typed" `Quick test_step_limit_typed;
          Alcotest.test_case "simulator deadlock is typed Liveness" `Quick
            test_simulator_deadlock_typed;
          Alcotest.test_case "sequential deadlock is typed" `Quick
            test_sequential_deadlock_typed;
          Alcotest.test_case "sequential task budget is typed" `Quick
            test_sequential_task_budget_typed;
          Alcotest.test_case "keyed dispatch falls back on non-int events" `Quick
            test_keyed_fallback_exact;
          Alcotest.test_case "check_both reports both modes" `Quick
            test_check_both_reports_both_modes;
        ] );
      ( "cli",
        [
          Alcotest.test_case "run --backend / backends / golden gate" `Quick
            test_cli_run_backend_and_golden_diff;
        ] );
    ]
