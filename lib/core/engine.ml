module Vec = Agp_util.Vec
module Fifo = Agp_util.Fifo
module Heap = Agp_util.Heap

type task = {
  tid : int;
  set_slot : int;
  index : Index.t;
  payload : Value.t array;
  env : Interp.env;
  mutable cont : Spec.op list;
  mutable status : status;
  mutable awaiting : (string * rule_instance) option;
  mutable broadcast_committed : bool;
}

and status =
  | Pending
  | Running
  | Waiting
  | Committed
  | Squashed

and rule_instance = {
  rule : Spec.rule;
  params : Value.t array;
  parent : task;
  mutable counter : int;
  mutable resolved : bool option;
}

type outcome =
  | Committed_task
  | Aborted_task
  | Retried_task

type step_result =
  | Stepped
  | Blocked
  | Finished of outcome

type stats = {
  mutable activated : int;
  mutable committed : int;
  mutable aborted : int;
  mutable retried : int;
  mutable events_fired : int;
  mutable otherwise_fired : int;
  mutable clause_resolutions : int;
  mutable ops_executed : int;
  mutable rule_allocs : int;
}

(* A fired event, kept in the log so counted rules can reconstruct how
   many of their expected dependences already resolved before the rule
   was allocated (the scoreboard of Fig. 8). *)
type logged_event = {
  ev_kind : [ `Activated | `Reached of string ];
  ev_set : int; (* source task set slot *)
  ev_index : Index.t;
  ev_fields : Value.t array;
  ev_source : int; (* tid *)
}

type t = {
  sp : Spec.t;
  bindings : Spec.bindings;
  st : State.t;
  stats_r : stats;
  counters : int array;
  queues : (string * task Fifo.t) array;
  mutable rr : int; (* round-robin pointer for pop_any *)
  mutable next_tid : int;
  mutable running : int; (* count of Running tasks *)
  mutable waiting : task list;
  uncommitted : (Index.t * task) Heap.t;
  mutable live_rules : rule_instance list;
  mutable last_min_broadcast : int; (* tid, -1 = none *)
  event_log : logged_event Vec.t;
  handles : (int, (string, rule_instance) Hashtbl.t) Hashtbl.t; (* per tid *)
  prim_counts : (string, int) Hashtbl.t;
}

let create sp bindings st =
  begin
    match Spec.validate sp with
    | Ok () -> ()
    | Error es -> invalid_arg ("Engine.create: invalid spec: " ^ String.concat "; " es)
  end;
  let n_sets = List.length sp.Spec.task_sets in
  {
    sp;
    bindings;
    st;
    stats_r =
      {
        activated = 0;
        committed = 0;
        aborted = 0;
        retried = 0;
        events_fired = 0;
        otherwise_fired = 0;
        clause_resolutions = 0;
        ops_executed = 0;
        rule_allocs = 0;
      };
    counters = Array.make n_sets 0;
    queues =
      Array.of_list (List.map (fun ts -> (ts.Spec.ts_name, Fifo.create ())) sp.Spec.task_sets);
    rr = 0;
    next_tid = 0;
    running = 0;
    waiting = [];
    uncommitted = Heap.create (fun (i1, _) (i2, _) -> Index.compare i1 i2);
    live_rules = [];
    last_min_broadcast = -1;
    event_log = Vec.create ();
    handles = Hashtbl.create 64;
    prim_counts = Hashtbl.create 8;
  }

let stats t = t.stats_r

let set_of_slot t slot = List.nth t.sp.Spec.task_sets slot

let queue_of t name =
  let rec find i =
    if i >= Array.length t.queues then invalid_arg ("Engine: unknown task set " ^ name)
    else begin
      let qname, q = t.queues.(i) in
      if qname = name then q else find (i + 1)
    end
  in
  find 0

(* --- rule resolution plumbing --- *)

let resolve_rule t inst value =
  if inst.resolved = None then begin
    inst.resolved <- Some value;
    t.live_rules <- List.filter (fun r -> r != inst) t.live_rules
  end

let release_task_rules t task =
  t.live_rules <- List.filter (fun r -> r.parent.tid <> task.tid || r.resolved <> None) t.live_rules;
  Hashtbl.remove t.handles task.tid

(* --- event dispatch --- *)

let clause_matches_event clause (kind : [ `Activated | `Reached of string ]) set_name =
  match (clause.Spec.on, kind) with
  | Spec.On_activated s, `Activated -> s = set_name
  | Spec.On_reached (s, l), `Reached label -> s = set_name && l = label
  | Spec.On_min_changed, (`Activated | `Reached _) -> false
  | (Spec.On_activated _ | Spec.On_reached _), _ -> false

let apply_clause t inst clause ~fields ~earlier ~later =
  if
    Interp.eval_cond_strict ~params:inst.params ~fields ~earlier ~later clause.Spec.condition
  then begin
    match clause.Spec.action with
    | Spec.Return_bool b ->
        t.stats_r.clause_resolutions <- t.stats_r.clause_resolutions + 1;
        resolve_rule t inst b
    | Spec.Decrement ->
        inst.counter <- inst.counter - 1;
        if inst.counter <= 0 then begin
          t.stats_r.clause_resolutions <- t.stats_r.clause_resolutions + 1;
          resolve_rule t inst true
        end
  end

let fire_event t ~kind ~set_slot ~index ~fields ~source_tid =
  t.stats_r.events_fired <- t.stats_r.events_fired + 1;
  let set_name = (set_of_slot t set_slot).Spec.ts_name in
  Vec.push t.event_log { ev_kind = kind; ev_set = set_slot; ev_index = index; ev_fields = fields; ev_source = source_tid };
  List.iter
    (fun inst ->
      if inst.resolved = None && inst.parent.tid <> source_tid then begin
        let cmp = Index.compare index inst.parent.index in
        let earlier = cmp < 0 and later = cmp > 0 in
        List.iter
          (fun clause ->
            if inst.resolved = None && clause_matches_event clause kind set_name then
              apply_clause t inst clause ~fields ~earlier ~later)
          inst.rule.Spec.clauses
      end)
    t.live_rules

let fire_min_changed t ~index ~fields ~source_tid =
  t.stats_r.events_fired <- t.stats_r.events_fired + 1;
  List.iter
    (fun inst ->
      if inst.resolved = None && inst.parent.tid <> source_tid then begin
        let cmp = Index.compare index inst.parent.index in
        let earlier = cmp < 0 and later = cmp > 0 in
        List.iter
          (fun clause ->
            if inst.resolved = None && clause.Spec.on = Spec.On_min_changed then
              apply_clause t inst clause ~fields ~earlier ~later)
          inst.rule.Spec.clauses
      end)
    t.live_rules

(* --- task creation --- *)

let make_task t ~slot ~index ~payload =
  let task =
    {
      tid = t.next_tid;
      set_slot = slot;
      index;
      payload;
      env = Hashtbl.create 8;
      cont = (set_of_slot t slot).Spec.body;
      status = Pending;
      awaiting = None;
      broadcast_committed = false;
    }
  in
  t.next_tid <- t.next_tid + 1;
  task

let enqueue ?(front = false) t task =
  let set = set_of_slot t task.set_slot in
  let q = queue_of t set.Spec.ts_name in
  if front then ignore (Fifo.push_front q task) else Fifo.push_exn q task;
  Heap.push t.uncommitted (task.index, task);
  t.stats_r.activated <- t.stats_r.activated + 1;
  fire_event t ~kind:`Activated ~set_slot:task.set_slot ~index:task.index ~fields:task.payload
    ~source_tid:task.tid

let stamp t slot =
  match (set_of_slot t slot).Spec.ts_order with
  | Spec.For_all -> 0
  | Spec.For_each ->
      let c = t.counters.(slot) in
      t.counters.(slot) <- c + 1;
      c

let do_push t ~parent_index ~source_tid set_name payload =
  ignore source_tid;
  let slot = Spec.task_set_slot t.sp set_name in
  let index = Index.child ~parent:parent_index ~slot ~stamp:(stamp t slot) in
  let task = make_task t ~slot ~index ~payload:(Array.of_list payload) in
  enqueue t task

let push_initial t set_name payload =
  let slot = Spec.task_set_slot t.sp set_name in
  let root = Index.root (List.length t.sp.Spec.task_sets) in
  do_push t ~parent_index:root ~source_tid:(-1) set_name payload;
  ignore slot

(* --- queues --- *)

let pop_any t =
  let n = Array.length t.queues in
  let rec loop tries =
    if tries >= n then None
    else begin
      let i = (t.rr + tries) mod n in
      let _, q = t.queues.(i) in
      match Fifo.pop q with
      | Some task ->
          t.rr <- (i + 1) mod n;
          task.status <- Running;
          t.running <- t.running + 1;
          Some task
      | None -> loop (tries + 1)
    end
  in
  loop 0

let pop_min t =
  (* Per-set queues are FIFO and for-each stamps are monotone, so each
     queue head is that set's minimum pending task; the global minimum
     pending task is the smallest head. *)
  let best = ref None in
  Array.iter
    (fun (_, q) ->
      match Fifo.peek q with
      | None -> ()
      | Some task -> begin
          match !best with
          | None -> best := Some (task, q)
          | Some (b, _) -> if Index.compare task.index b.index < 0 then best := Some (task, q)
        end)
    t.queues;
  match !best with
  | None -> None
  | Some (_, q) -> begin
      match Fifo.pop q with
      | Some task ->
          task.status <- Running;
          t.running <- t.running + 1;
          Some task
      | None -> assert false
    end

let pending_count t = Array.fold_left (fun acc (_, q) -> acc + Fifo.length q) 0 t.queues

let min_pending_head t =
  let best = ref None in
  Array.iter
    (fun (_, q) ->
      match Fifo.peek q with
      | None -> ()
      | Some task -> begin
          match !best with
          | None -> best := Some task
          | Some b -> if Index.compare task.index b.index < 0 then best := Some task
        end)
    t.queues;
  !best

let waiting_tasks t = t.waiting

let uncommitted_remaining t =
  t.running > 0 || t.waiting <> [] || pending_count t > 0

(* --- minimum tracking --- *)

let prim_counts t = Hashtbl.fold (fun name n acc -> (name, n) :: acc) t.prim_counts []

let min_uncommitted_task t =
  (* A task that has fired its commit broadcast (its first Emit) is
     retired for ordering purposes: its remaining tail pipelines behind
     later tasks, exactly as a TLS commit stage drains while younger
     work proceeds.  Conflict events always precede the release of the
     next minimum because the Emit is dispatched before the minimum is
     recomputed. *)
  let rec peek () =
    match Heap.peek t.uncommitted with
    | None -> None
    | Some (_, task) -> begin
        match task.status with
        | (Pending | Running | Waiting) when not task.broadcast_committed -> Some task
        | Pending | Running | Waiting | Committed | Squashed ->
            ignore (Heap.pop t.uncommitted);
            peek ()
      end
  in
  peek ()

let min_uncommitted_index t = Option.map (fun task -> task.index) (min_uncommitted_task t)

let min_waiting_index t =
  List.fold_left
    (fun acc task ->
      match acc with
      | None -> Some task.index
      | Some best -> if Index.compare task.index best < 0 then Some task.index else acc)
    None t.waiting

(* --- counted rule allocation --- *)

let count_past_matches t rule params parent_index =
  let count = ref 0 in
  Vec.iter
    (fun ev ->
      let set_name = (set_of_slot t ev.ev_set).Spec.ts_name in
      let cmp = Index.compare ev.ev_index parent_index in
      let earlier = cmp < 0 and later = cmp > 0 in
      if
        List.exists
          (fun clause ->
            clause.Spec.action = Spec.Decrement
            && clause_matches_event clause ev.ev_kind set_name
            && Interp.eval_cond_strict ~params ~fields:ev.ev_fields ~earlier ~later
                 clause.Spec.condition)
          rule.Spec.clauses
      then incr count)
    t.event_log;
  !count

let alloc_rule t task rule_name params =
  let rule = Spec.find_rule t.sp rule_name in
  let params = Array.of_list params in
  let counter =
    if rule.Spec.counted then begin
      let expected =
        match List.assoc_opt rule_name t.bindings.Spec.expected with
        | Some f -> f (Array.to_list params)
        | None ->
            invalid_arg ("Engine: counted rule " ^ rule_name ^ " has no expected binding")
      in
      expected - count_past_matches t rule params task.index
    end
    else 0
  in
  let inst = { rule; params; parent = task; counter; resolved = None } in
  t.stats_r.rule_allocs <- t.stats_r.rule_allocs + 1;
  if rule.Spec.counted && inst.counter <= 0 then inst.resolved <- Some true
  else t.live_rules <- inst :: t.live_rules;
  inst

(* --- stepping --- *)

let finish t task outcome =
  begin
    match task.status with
    | Running -> t.running <- t.running - 1
    | Waiting -> t.waiting <- List.filter (fun w -> w.tid <> task.tid) t.waiting
    | Pending | Committed | Squashed -> ()
  end;
  release_task_rules t task;
  match outcome with
  | Committed_task ->
      task.status <- Committed;
      t.stats_r.committed <- t.stats_r.committed + 1
  | Aborted_task ->
      task.status <- Squashed;
      t.stats_r.aborted <- t.stats_r.aborted + 1
  | Retried_task ->
      task.status <- Squashed;
      t.stats_r.retried <- t.stats_r.retried + 1;
      (* Re-activate with the same index and payload at the FRONT of
         the queue: TLS-style squash and re-execute in place, so the
         well-order minimum is always at a queue head. *)
      let again = make_task t ~slot:task.set_slot ~index:task.index ~payload:task.payload in
      enqueue ~front:true t again

let handle_table t task =
  match Hashtbl.find_opt t.handles task.tid with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 4 in
      Hashtbl.add t.handles task.tid tbl;
      tbl

let step t task =
  match task.cont with
  | [] ->
      finish t task Committed_task;
      Finished Committed_task
  | op :: rest -> begin
      t.stats_r.ops_executed <- t.stats_r.ops_executed + 1;
      let eval e = Interp.eval_expr task.env task.payload e in
      match op with
      | Spec.Let (v, e) ->
          Hashtbl.replace task.env v (eval e);
          task.cont <- rest;
          Stepped
      | Spec.Load (v, arr, addr) ->
          Hashtbl.replace task.env v (t.st |> fun st -> State.read st arr (Value.to_int (eval addr)));
          task.cont <- rest;
          Stepped
      | Spec.Store (arr, addr, e) ->
          State.write t.st arr (Value.to_int (eval addr)) (eval e);
          task.cont <- rest;
          Stepped
      | Spec.Push (set, payload) ->
          do_push t ~parent_index:task.index ~source_tid:task.tid set (List.map eval payload);
          task.cont <- rest;
          Stepped
      | Spec.Push_iter (set, lo, hi, var, payload) ->
          let lo = Value.to_int (eval lo) and hi = Value.to_int (eval hi) in
          for i = lo to hi - 1 do
            Hashtbl.replace task.env var (Value.Int i);
            do_push t ~parent_index:task.index ~source_tid:task.tid set (List.map eval payload)
          done;
          task.cont <- rest;
          Stepped
      | Spec.Alloc (handle, rule_name, params) ->
          let inst = alloc_rule t task rule_name (List.map eval params) in
          Hashtbl.replace (handle_table t task) handle inst;
          task.cont <- rest;
          Stepped
      | Spec.Await (dst, handle) -> begin
          match Hashtbl.find_opt (handle_table t task) handle with
          | None -> invalid_arg ("Engine: Await on unallocated handle " ^ handle)
          | Some inst -> begin
              match inst.resolved with
              | Some b ->
                  Hashtbl.replace task.env dst (Value.Bool b);
                  task.cont <- rest;
                  Stepped
              | None ->
                  task.status <- Waiting;
                  task.awaiting <- Some (dst, inst);
                  t.running <- t.running - 1;
                  t.waiting <- task :: t.waiting;
                  Blocked
            end
        end
      | Spec.Emit (label, fields) ->
          fire_event t ~kind:(`Reached label) ~set_slot:task.set_slot ~index:task.index
            ~fields:(Array.of_list (List.map eval fields))
            ~source_tid:task.tid;
          task.broadcast_committed <- true;
          task.cont <- rest;
          Stepped
      | Spec.If (c, a, b) ->
          task.cont <- (if Value.truthy (eval c) then a @ rest else b @ rest);
          Stepped
      | Spec.Abort ->
          finish t task Aborted_task;
          Finished Aborted_task
      | Spec.Retry ->
          finish t task Retried_task;
          Finished Retried_task
      | Spec.Prim (dsts, name, args) -> begin
          match List.assoc_opt name t.bindings.Spec.prims with
          | None -> invalid_arg ("Engine: unbound prim " ^ name)
          | Some impl ->
              Hashtbl.replace t.prim_counts name
                (1 + Option.value ~default:0 (Hashtbl.find_opt t.prim_counts name));
              let results =
                impl { Spec.state = t.st; Spec.task_index = task.index } (List.map eval args)
              in
              if List.length results <> List.length dsts then
                invalid_arg
                  (Printf.sprintf "Engine: prim %s returned %d values, expected %d" name
                     (List.length results) (List.length dsts));
              List.iter2 (fun d v -> Hashtbl.replace task.env d v) dsts results;
              task.cont <- rest;
              Stepped
        end
    end

(* --- minimum resolution --- *)

let resolve_pending t =
  (* 1. Broadcast a change of the minimum uncommitted task. *)
  begin
    match min_uncommitted_task t with
    | Some task when task.tid <> t.last_min_broadcast ->
        t.last_min_broadcast <- task.tid;
        fire_min_changed t ~index:task.index ~fields:task.payload ~source_tid:task.tid
    | Some _ | None -> ()
  end;
  (* 2. Fire otherwise clauses for minimal waiting parents. *)
  let min_unc = min_uncommitted_index t in
  let min_wait = min_waiting_index t in
  List.iter
    (fun task ->
      match task.awaiting with
      | Some (_, inst) when inst.resolved = None -> begin
          let minimal =
            match inst.rule.Spec.scope with
            | Spec.Min_waiting -> begin
                match min_wait with
                | Some m -> Index.compare task.index m = 0
                | None -> true
              end
            | Spec.Min_uncommitted -> begin
                match min_unc with
                | Some m -> Index.compare task.index m = 0
                | None -> true
              end
          in
          if minimal then begin
            t.stats_r.otherwise_fired <- t.stats_r.otherwise_fired + 1;
            resolve_rule t inst inst.rule.Spec.otherwise
          end
        end
      | Some _ | None -> ())
    t.waiting

let resume_ready t =
  let ready, still =
    List.partition
      (fun task ->
        match task.awaiting with
        | Some (_, inst) -> inst.resolved <> None
        | None -> true)
      t.waiting
  in
  t.waiting <- still;
  let ready = List.sort (fun a b -> Index.compare a.index b.index) ready in
  List.iter
    (fun task ->
      begin
        match task.awaiting with
        | Some (dst, inst) -> begin
            match inst.resolved with
            | Some b ->
                Hashtbl.replace task.env dst (Value.Bool b);
                (* drop the Await op *)
                (match task.cont with
                | Spec.Await _ :: rest -> task.cont <- rest
                | _ -> assert false)
            | None -> assert false
          end
        | None -> ()
      end;
      task.awaiting <- None;
      task.status <- Running;
      t.running <- t.running + 1)
    ready;
  ready

let run_to_completion t task =
  let rec loop () =
    match step t task with
    | Stepped -> loop ()
    | Finished outcome ->
        resolve_pending t;
        outcome
    | Blocked -> begin
        resolve_pending t;
        match resume_ready t with
        | [] ->
            failwith
              (Printf.sprintf "Engine: sequential deadlock at task %s of set %d"
                 (Index.to_string task.index) task.set_slot)
        | _ -> loop ()
      end
  in
  loop ()

let deadlocked t =
  t.running = 0 && pending_count t = 0 && t.waiting <> []
  &&
  (resolve_pending t;
   List.for_all
     (fun task ->
       match task.awaiting with
       | Some (_, inst) -> inst.resolved = None
       | None -> false)
     t.waiting)
