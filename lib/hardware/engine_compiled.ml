(* Compiled cycle engine: executes an {!Agp_core.Opcode.program} over
   pooled, preallocated mutable frames instead of tree-walking
   [Spec.op] lists with hashtable environments.

   It is the simulator's only cycle engine.  Two checks hold it in
   place: the conformance matrix compares its final state with the
   sequential oracle's on every app, and exact per-app pins
   (test/golden/engine-pins.json) fix its cycle count, engine
   statistics, memory traffic, stall attribution and event stream.

   What makes it fast:
   - task bodies are flat op arrays dispatched by pc ([match code.(pc)]),
     no [List.nth]/[@] on every step;
   - expressions and rule conditions are postfix bytecode evaluated over
     preallocated scratch stacks (ints + floats + tags, no [Value.t]
     boxing on the hot path);
   - tasks, rule instances, queues, the uncommitted-order heap and the
     pipeline windows are pooled flat structures recycled through free
     lists, so the steady-state loop allocates no words per cycle;
   - time advances straight to the next ready timestamp (the event
     wheel): when every in-flight frame is waiting out memory latency
     the loop jumps to [min ready] instead of polling cycle by cycle. *)

module Spec = Agp_core.Spec
module Value = Agp_core.Value
module Index = Agp_core.Index
module State = Agp_core.State
module Opcode = Agp_core.Opcode
module Engine = Agp_core.Engine
module Binop = Agp_core.Binop
module Bdfg = Agp_dataflow.Bdfg
module Vec = Agp_util.Vec
module Sink = Agp_obs.Sink
module Event = Agp_obs.Event
module Attribution = Agp_obs.Attribution
module Timeline = Agp_obs.Timeline

(* value tags on the scratch stacks / frames *)
let tg_int = 0

let tg_float = 1

let tg_bool = 2

let tg_unbound = 3

(* task status codes, mirroring Engine.status *)
let s_pending = 1

let s_running = 2

let s_waiting = 3

let s_committed = 4

let s_squashed = 5

type ctask = {
  mutable tid : int;
  mutable set : int;
  mutable idx : int array; (* well-order index, width = max n_sets 1 *)
  mutable pay_i : int array;
  mutable pay_f : float array;
  mutable pay_tg : int array;
  mutable n_pay : int;
  reg_i : int array;
  reg_f : float array;
  reg_tg : int array; (* tg_unbound until written *)
  handles : cinst array; (* nil_inst = unallocated *)
  insts : cinst Vec.t; (* every instance this incarnation allocated *)
  mutable pc : int;
  mutable status : int;
  mutable await_dst : int;
  mutable await_inst : cinst; (* nil_inst = not awaiting *)
  mutable bcast : bool; (* fired its commit broadcast (first Emit) *)
  (* in-flight frame state (a task sits in at most one window) *)
  mutable fr_ready : int;
  mutable fr_ops : int;
}

and cinst = {
  mutable ri_rule : int;
  mutable ri_parent : ctask;
  ri_pi : int array;
  ri_pf : float array;
  ri_ptg : int array;
  mutable ri_np : int;
  mutable ri_counter : int;
  mutable ri_resolved : int; (* 0 = unresolved, 1 = false, 2 = true *)
  mutable ri_pos : int; (* slot in the live vec, -1 = not live *)
}

let rec nil_task =
  {
    tid = -1;
    set = -1;
    idx = [||];
    pay_i = [||];
    pay_f = [||];
    pay_tg = [||];
    n_pay = 0;
    reg_i = [||];
    reg_f = [||];
    reg_tg = [||];
    handles = [||];
    insts = Vec.create ();
    pc = 0;
    status = 0;
    await_dst = -1;
    await_inst = nil_inst;
    bcast = false;
    fr_ready = 0;
    fr_ops = 0;
  }

and nil_inst =
  {
    ri_rule = -1;
    ri_parent = nil_task;
    ri_pi = [||];
    ri_pf = [||];
    ri_ptg = [||];
    ri_np = 0;
    ri_counter = 0;
    ri_resolved = 0;
    ri_pos = -1;
  }

(* per-set pending queue: FIFO ring of task pointers with push_front for
   TLS-style retry re-activation *)
type ring = {
  mutable rd : ctask array;
  mutable rh : int;
  mutable rl : int;
}

let ring_create () = { rd = Array.make 8 nil_task; rh = 0; rl = 0 }

let ring_grow r =
  let cap = Array.length r.rd in
  let nd = Array.make (cap * 2) nil_task in
  for i = 0 to r.rl - 1 do
    nd.(i) <- r.rd.((r.rh + i) mod cap)
  done;
  r.rd <- nd;
  r.rh <- 0

let ring_push r x =
  if r.rl = Array.length r.rd then ring_grow r;
  r.rd.((r.rh + r.rl) mod Array.length r.rd) <- x;
  r.rl <- r.rl + 1

let ring_push_front r x =
  if r.rl = Array.length r.rd then ring_grow r;
  let cap = Array.length r.rd in
  r.rh <- (r.rh + cap - 1) mod cap;
  r.rd.(r.rh) <- x;
  r.rl <- r.rl + 1

let ring_pop r =
  let x = r.rd.(r.rh) in
  r.rd.(r.rh) <- nil_task;
  r.rh <- (r.rh + 1) mod Array.length r.rd;
  r.rl <- r.rl - 1;
  x

let ring_peek r = if r.rl = 0 then nil_task else r.rd.(r.rh)

(* state array resolved at engine creation *)
type adata =
  | A_int of int array
  | A_float of float array
  | A_missing

(* logged event for counted-rule scoreboard reconstruction; only
   populated when the program has counted rules *)
type lev = {
  le_kind : int; (* 0 = activated, 1 = reached *)
  le_label : int;
  le_set : int;
  le_idx : int array;
  le_i : int array;
  le_f : float array;
  le_tg : int array;
  le_n : int;
}

type pipe = {
  cp_set : int;
  cp_set_name : string;
  cp_id : int;
  cp_capacity : int;
  cp_stage_ops : int;
  mutable cp_win : ctask array; (* window, newest entry at head 0 *)
  mutable cp_n : int;
  mutable cp_stepped : bool;
}

type t = {
  prog : Opcode.program;
  st : State.t;
  cfg : Config.t;
  mem : Memory.t;
  sink : Sink.t;
  stats : Engine.stats;
  width : int;
  counters : int array; (* For_each stamps *)
  rings : ring array;
  mutable next_tid : int;
  mutable running : int;
  waiting : ctask Vec.t; (* append order = oldest first *)
  (* binary min-heap over (index row, task, tid) — replicates
     Agp_util.Heap's sift exactly so tie-breaking matches
     Agp_core.Engine's uncommitted heap *)
  mutable h_idx : int array; (* flattened rows, width stride *)
  mutable h_task : ctask array;
  mutable h_tid : int array;
  mutable h_len : int;
  live : cinst Vec.t;
  snap : cinst Vec.t; (* iteration snapshot for event firing *)
  free_tasks : ctask Vec.t;
  free_insts : cinst Vec.t;
  mutable last_min_broadcast : int;
  log : lev Vec.t;
  prim_impls : Spec.prim_impl option array;
  prim_count : int array;
  prim_lat : int array; (* compute latency per prim *)
  expected_fns : (Value.t list -> int) option array; (* per rule *)
  arr_data : adata array;
  arr_base : int array;
  base_memo : (string, int) Hashtbl.t; (* prim-trace address bases *)
  (* eval scratch *)
  st_i : int array;
  st_f : float array;
  st_tg : int array;
  (* current event context for rule-condition evaluation *)
  mutable ev_i : int array;
  mutable ev_f : float array;
  mutable ev_tg : int array;
  mutable ev_n : int;
  mutable cx_earlier : bool;
  mutable cx_later : bool;
  (* emit / push / alloc argument scratch *)
  em_i : int array;
  em_f : float array;
  em_tg : int array;
  ar_i : int array;
  ar_f : float array;
  ar_tg : int array;
  resumed : ctask Vec.t;
  mutable step_lat : int;
}

(* --- index rows --- *)

(* top-level recursion: a local [let rec loop] closure would allocate
   on every call, and this is the hottest comparator in the engine *)
let rec idx_cmp_from (a : int array) (b : int array) n i =
  if i >= n then 0
  else begin
    let x = a.(i) and y = b.(i) in
    if x < y then -1 else if x > y then 1 else idx_cmp_from a b n (i + 1)
  end

let idx_cmp (a : int array) (b : int array) = idx_cmp_from a b (Array.length a) 0

(* --- value helpers replicating Interp/Value error strings ---

   The binop table itself and the cold raisers now live in
   {!Agp_core.Binop}, shared with the tree-walking [Interp] so the two
   evaluators cannot drift; the local tag constants above are the same
   encoding (asserted below) and stay literal so ocamlopt keeps
   propagating them as immediates in the hot tag checks. *)

let () =
  assert (
    tg_int = Binop.tg_int
    && tg_float = Binop.tg_float
    && tg_bool = Binop.tg_bool
    && tg_unbound = Binop.tg_unbound)

let vstr = Binop.vstr

(* cold raising helpers: callers check the tag inline so the hot path
   never passes a float across a function boundary (OCaml boxes float
   arguments of non-inlined calls, which was the engine's dominant
   steady-state allocation) *)
let bool_type_error = Binop.bool_type_error

let int_type_error = Binop.int_type_error

let truthy_type_error = Binop.truthy_type_error

let arith_error = Binop.arith_error

(* out-of-range CParam/CField probe: the clause does not match *)
exception Oor

(* int-typed max/min: the polymorphic [Stdlib.max] calls the generic
   comparison out-of-line on every use *)
let imax (a : int) b = if a >= b then a else b

let imin (a : int) b = if a <= b then a else b

(* evaluate postfix bytecode; the result lands in stack slot 0.
   [tk] supplies Param/Var frames; [inst] supplies rule params for
   condition code (pass nil_inst for task-body expressions). *)
(* valid CAM cell: negative ints are padding and never match *)
let cam_valid tg i = tg <> tg_int || i >= 0

(* any valid param tail value (from [p]) equal to any valid field tail
   value (from [f]); top-level recursion keeps this allocation-free *)
let rec overlap_row en (inst : cinst) p f =
  if f >= en.ev_n then false
  else if
    cam_valid en.ev_tg.(f) en.ev_i.(f)
    (* Value.equal semantics, inline: same constructor, same value
       (float NaN compares unequal) *)
    && inst.ri_ptg.(p) = en.ev_tg.(f)
    && (if inst.ri_ptg.(p) = tg_float then inst.ri_pf.(p) = en.ev_f.(f)
        else inst.ri_pi.(p) = en.ev_i.(f))
  then true
  else overlap_row en inst p (f + 1)

let rec overlap_scan en (inst : cinst) p f =
  if p >= inst.ri_np then false
  else if cam_valid inst.ri_ptg.(p) inst.ri_pi.(p) && overlap_row en inst p f then true
  else overlap_scan en inst (p + 1) f

(* the stack pointer is threaded as an argument (a [ref] here would
   allocate on every expression evaluation) *)
let rec eval_ops en (tk : ctask) (inst : cinst) (code : Opcode.eop array) n k sp =
  if k < n then
    let sp =
      match code.(k) with
      | Opcode.E_int v ->
          en.st_i.(sp) <- v;
          en.st_tg.(sp) <- tg_int;
          sp + 1
      | Opcode.E_float x ->
          en.st_f.(sp) <- x;
          en.st_tg.(sp) <- tg_float;
          sp + 1
      | Opcode.E_bool b ->
          en.st_i.(sp) <- (if b then 1 else 0);
          en.st_tg.(sp) <- tg_bool;
          sp + 1
      | Opcode.E_param i ->
          if i < 0 || i >= tk.n_pay then
            invalid_arg (Printf.sprintf "Interp: Param %d out of range" i);
          en.st_i.(sp) <- tk.pay_i.(i);
          en.st_f.(sp) <- tk.pay_f.(i);
          en.st_tg.(sp) <- tk.pay_tg.(i);
          sp + 1
      | Opcode.E_reg (r, name) ->
          if tk.reg_tg.(r) = tg_unbound then invalid_arg ("Interp: unbound variable " ^ name);
          en.st_i.(sp) <- tk.reg_i.(r);
          en.st_f.(sp) <- tk.reg_f.(r);
          en.st_tg.(sp) <- tk.reg_tg.(r);
          sp + 1
      | Opcode.E_binop op ->
          (* the shared semantics table (Agp_core.Binop): direct call on
             arrays + int slots, nothing boxed *)
          Binop.exec en.st_i en.st_f en.st_tg op (sp - 2) (sp - 1);
          sp - 1
      | Opcode.E_not ->
          let a = sp - 1 in
          if en.st_tg.(a) <> tg_bool then bool_type_error en.st_tg.(a) en.st_i.(a) en.st_f.(a);
          en.st_i.(a) <- (if en.st_i.(a) <> 0 then 0 else 1);
          en.st_tg.(a) <- tg_bool;
          sp
      | Opcode.E_neg ->
          let a = sp - 1 in
          if en.st_tg.(a) = tg_int then en.st_i.(a) <- -en.st_i.(a)
          else if en.st_tg.(a) = tg_float then en.st_f.(a) <- -.en.st_f.(a)
          else arith_error "negation";
          sp
      | Opcode.E_cparam i ->
          if i < 0 || i >= inst.ri_np then raise Oor;
          en.st_i.(sp) <- inst.ri_pi.(i);
          en.st_f.(sp) <- inst.ri_pf.(i);
          en.st_tg.(sp) <- inst.ri_ptg.(i);
          sp + 1
      | Opcode.E_cfield i ->
          if i < 0 || i >= en.ev_n then raise Oor;
          en.st_i.(sp) <- en.ev_i.(i);
          en.st_f.(sp) <- en.ev_f.(i);
          en.st_tg.(sp) <- en.ev_tg.(i);
          sp + 1
      | Opcode.E_earlier ->
          en.st_i.(sp) <- (if en.cx_earlier then 1 else 0);
          en.st_tg.(sp) <- tg_bool;
          sp + 1
      | Opcode.E_later ->
          en.st_i.(sp) <- (if en.cx_later then 1 else 0);
          en.st_tg.(sp) <- tg_bool;
          sp + 1
      | Opcode.E_overlap (p, f) ->
          en.st_i.(sp) <- (if overlap_scan en inst p f then 1 else 0);
          en.st_tg.(sp) <- tg_bool;
          sp + 1
    in
    eval_ops en tk inst code n (k + 1) sp

let eval en (tk : ctask) (inst : cinst) (code : Opcode.eop array) =
  eval_ops en tk inst code (Array.length code) 0 0

(* --- task / instance pools --- *)

let ensure_pay tk n =
  if Array.length tk.pay_i < n then begin
    tk.pay_i <- Array.make n 0;
    tk.pay_f <- Array.make n 0.0;
    tk.pay_tg <- Array.make n tg_int
  end

let new_task en ~set ~n_pay =
  let p = en.prog in
  let tk =
    if Vec.length en.free_tasks > 0 then Vec.pop en.free_tasks
    else
      {
        tid = 0;
        set = 0;
        idx = Array.make en.width 0;
        pay_i = Array.make (max p.Opcode.max_arity p.Opcode.max_push_args) 0;
        pay_f = Array.make (max p.Opcode.max_arity p.Opcode.max_push_args) 0.0;
        pay_tg = Array.make (max p.Opcode.max_arity p.Opcode.max_push_args) tg_int;
        n_pay = 0;
        reg_i = Array.make p.Opcode.max_regs 0;
        reg_f = Array.make p.Opcode.max_regs 0.0;
        reg_tg = Array.make p.Opcode.max_regs tg_unbound;
        handles = Array.make p.Opcode.max_handles nil_inst;
        insts = Vec.create ();
        pc = 0;
        status = s_pending;
        await_dst = -1;
        await_inst = nil_inst;
        bcast = false;
        fr_ready = 0;
        fr_ops = 0;
      }
  in
  tk.tid <- en.next_tid;
  en.next_tid <- en.next_tid + 1;
  tk.set <- set;
  ensure_pay tk n_pay;
  tk.n_pay <- n_pay;
  Array.fill tk.reg_tg 0 (Array.length tk.reg_tg) tg_unbound;
  Array.fill tk.handles 0 (Array.length tk.handles) nil_inst;
  Vec.clear tk.insts;
  tk.pc <- p.Opcode.entry.(set);
  tk.status <- s_pending;
  tk.await_dst <- -1;
  tk.await_inst <- nil_inst;
  tk.bcast <- false;
  tk.fr_ready <- 0;
  tk.fr_ops <- 0;
  tk

let new_inst en =
  if Vec.length en.free_insts > 0 then Vec.pop en.free_insts
  else
    {
      ri_rule = 0;
      ri_parent = nil_task;
      ri_pi = Array.make en.prog.Opcode.max_rule_params 0;
      ri_pf = Array.make en.prog.Opcode.max_rule_params 0.0;
      ri_ptg = Array.make en.prog.Opcode.max_rule_params tg_int;
      ri_np = 0;
      ri_counter = 0;
      ri_resolved = 0;
      ri_pos = -1;
    }

(* --- uncommitted-order heap (replicates Agp_util.Heap's sifts) --- *)

let heap_ensure en =
  let cap = Array.length en.h_task in
  if en.h_len = cap then begin
    let ncap = if cap = 0 then 8 else cap * 2 in
    let nt = Array.make ncap nil_task and ni = Array.make (ncap * en.width) 0 in
    let nd = Array.make ncap 0 in
    Array.blit en.h_task 0 nt 0 cap;
    Array.blit en.h_idx 0 ni 0 (cap * en.width);
    Array.blit en.h_tid 0 nd 0 cap;
    en.h_task <- nt;
    en.h_idx <- ni;
    en.h_tid <- nd
  end

let rec heap_cmp_from (h : int array) bi bj w k =
  if k >= w then 0
  else begin
    let x = h.(bi + k) and y = h.(bj + k) in
    if x < y then -1 else if x > y then 1 else heap_cmp_from h bi bj w (k + 1)
  end

let heap_cmp en i j =
  let w = en.width in
  heap_cmp_from en.h_idx (i * w) (j * w) w 0

let heap_swap en i j =
  let w = en.width in
  let t = en.h_task.(i) in
  en.h_task.(i) <- en.h_task.(j);
  en.h_task.(j) <- t;
  let d = en.h_tid.(i) in
  en.h_tid.(i) <- en.h_tid.(j);
  en.h_tid.(j) <- d;
  for k = 0 to w - 1 do
    let x = en.h_idx.((i * w) + k) in
    en.h_idx.((i * w) + k) <- en.h_idx.((j * w) + k);
    en.h_idx.((j * w) + k) <- x
  done

let rec heap_sift_up en i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_cmp en i parent < 0 then begin
      heap_swap en i parent;
      heap_sift_up en parent
    end
  end

let rec heap_sift_down en i =
  let n = en.h_len in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let s = if l < n && heap_cmp en l i < 0 then l else i in
  let s = if r < n && heap_cmp en r s < 0 then r else s in
  if s <> i then begin
    heap_swap en i s;
    heap_sift_down en s
  end

let heap_push en (tk : ctask) =
  heap_ensure en;
  let i = en.h_len in
  en.h_task.(i) <- tk;
  en.h_tid.(i) <- tk.tid;
  Array.blit tk.idx 0 en.h_idx (i * en.width) en.width;
  en.h_len <- en.h_len + 1;
  heap_sift_up en i

let heap_drop_top en =
  let last = en.h_len - 1 in
  if last > 0 then begin
    en.h_task.(0) <- en.h_task.(last);
    en.h_tid.(0) <- en.h_tid.(last);
    Array.blit en.h_idx (last * en.width) en.h_idx 0 en.width
  end;
  en.h_task.(last) <- nil_task;
  en.h_len <- last;
  if last > 0 then heap_sift_down en 0

(* lazy-deletion peek: the minimum uncommitted, pre-broadcast task.
   A recycled slot (tid mismatch) means the original task finished. *)
let rec min_uncommitted en =
  if en.h_len = 0 then nil_task
  else begin
    let tk = en.h_task.(0) in
    if
      tk.tid = en.h_tid.(0)
      && (tk.status = s_pending || tk.status = s_running || tk.status = s_waiting)
      && not tk.bcast
    then tk
    else begin
      heap_drop_top en;
      min_uncommitted en
    end
  end

(* --- rule resolution --- *)

let resolve en inst b =
  if inst.ri_resolved = 0 then begin
    inst.ri_resolved <- (if b then 2 else 1);
    if inst.ri_pos >= 0 then begin
      let last = Vec.pop en.live in
      if last != inst then begin
        Vec.set en.live inst.ri_pos last;
        last.ri_pos <- inst.ri_pos
      end;
      inst.ri_pos <- -1
    end
  end

let clause_matches (c : Opcode.cclause) ~kind ~set ~label =
  match c.Opcode.c_kind with
  | 0 -> kind = 0 && c.Opcode.c_set = set
  | 1 -> kind = 1 && c.Opcode.c_set = set && c.Opcode.c_label = label
  | _ -> false

(* evaluate a clause condition against the current event context;
   out-of-range probes make the clause not match, any other evaluation
   error propagates (matching Interp.eval_cond_strict) *)
let clause_holds en inst (c : Opcode.cclause) =
  match eval en nil_task inst c.Opcode.c_cond with
  | () ->
      if en.st_tg.(0) <> tg_bool then bool_type_error en.st_tg.(0) en.st_i.(0) en.st_f.(0);
      en.st_i.(0) <> 0
  | exception Oor -> false

let apply_clause en inst (c : Opcode.cclause) =
  if clause_holds en inst c then begin
    match c.Opcode.c_return with
    | Some b ->
        en.stats.Engine.clause_resolutions <- en.stats.Engine.clause_resolutions + 1;
        resolve en inst b
    | None ->
        inst.ri_counter <- inst.ri_counter - 1;
        if inst.ri_counter <= 0 then begin
          en.stats.Engine.clause_resolutions <- en.stats.Engine.clause_resolutions + 1;
          resolve en inst true
        end
  end

(* dispatch an event (kind 0 = activated, 1 = reached) to all live rule
   instances; the event-field context must already be set *)
let fire_event en ~kind ~set ~label ~(index : int array) ~source_tid =
  en.stats.Engine.events_fired <- en.stats.Engine.events_fired + 1;
  if en.prog.Opcode.has_counted then begin
    let n = en.ev_n in
    Vec.push en.log
      {
        le_kind = kind;
        le_label = label;
        le_set = set;
        le_idx = Array.copy index;
        le_i = Array.sub en.ev_i 0 n;
        le_f = Array.sub en.ev_f 0 n;
        le_tg = Array.sub en.ev_tg 0 n;
        le_n = n;
      }
  end;
  Vec.clear en.snap;
  for i = 0 to Vec.length en.live - 1 do
    Vec.push en.snap (Vec.get en.live i)
  done;
  for i = 0 to Vec.length en.snap - 1 do
    let inst = Vec.get en.snap i in
    if inst.ri_resolved = 0 && inst.ri_parent.tid <> source_tid then begin
      let cmp = idx_cmp index inst.ri_parent.idx in
      en.cx_earlier <- cmp < 0;
      en.cx_later <- cmp > 0;
      let cls = en.prog.Opcode.rules.(inst.ri_rule).Opcode.r_clauses in
      for k = 0 to Array.length cls - 1 do
        if inst.ri_resolved = 0 && clause_matches cls.(k) ~kind ~set ~label then
          apply_clause en inst cls.(k)
      done
    end
  done

let fire_min_changed en ~(index : int array) ~source_tid =
  en.stats.Engine.events_fired <- en.stats.Engine.events_fired + 1;
  Vec.clear en.snap;
  for i = 0 to Vec.length en.live - 1 do
    Vec.push en.snap (Vec.get en.live i)
  done;
  for i = 0 to Vec.length en.snap - 1 do
    let inst = Vec.get en.snap i in
    if inst.ri_resolved = 0 && inst.ri_parent.tid <> source_tid then begin
      let cmp = idx_cmp index inst.ri_parent.idx in
      en.cx_earlier <- cmp < 0;
      en.cx_later <- cmp > 0;
      let cls = en.prog.Opcode.rules.(inst.ri_rule).Opcode.r_clauses in
      for k = 0 to Array.length cls - 1 do
        if inst.ri_resolved = 0 && cls.(k).Opcode.c_kind = 2 then apply_clause en inst cls.(k)
      done
    end
  done

(* --- counted-rule allocation: replay the event log --- *)

let count_past_matches en rule_id inst (parent_idx : int array) =
  let count = ref 0 in
  let cls = en.prog.Opcode.rules.(rule_id).Opcode.r_clauses in
  Vec.iter
    (fun ev ->
      let cmp = idx_cmp ev.le_idx parent_idx in
      en.cx_earlier <- cmp < 0;
      en.cx_later <- cmp > 0;
      en.ev_i <- ev.le_i;
      en.ev_f <- ev.le_f;
      en.ev_tg <- ev.le_tg;
      en.ev_n <- ev.le_n;
      let hit = ref false in
      for k = 0 to Array.length cls - 1 do
        if
          (not !hit)
          && cls.(k).Opcode.c_return = None
          && clause_matches cls.(k) ~kind:ev.le_kind ~set:ev.le_set ~label:ev.le_label
          && clause_holds en inst cls.(k)
        then hit := true
      done;
      if !hit then incr count)
    en.log;
  !count

(* boxed view of an instance's params, for the expected-count binding *)
let boxed_params inst =
  let rec go i acc =
    if i < 0 then acc
    else begin
      let v =
        if inst.ri_ptg.(i) = tg_int then Value.Int inst.ri_pi.(i)
        else if inst.ri_ptg.(i) = tg_float then Value.Float inst.ri_pf.(i)
        else Value.Bool (inst.ri_pi.(i) <> 0)
      in
      go (i - 1) (v :: acc)
    end
  in
  go (inst.ri_np - 1) []

(* args already evaluated into ar_*; nargs of them *)
let alloc_rule en (tk : ctask) ~rule_id ~nargs =
  let r = en.prog.Opcode.rules.(rule_id) in
  let inst = new_inst en in
  inst.ri_rule <- rule_id;
  inst.ri_parent <- tk;
  Array.blit en.ar_i 0 inst.ri_pi 0 nargs;
  Array.blit en.ar_f 0 inst.ri_pf 0 nargs;
  Array.blit en.ar_tg 0 inst.ri_ptg 0 nargs;
  inst.ri_np <- nargs;
  inst.ri_resolved <- 0;
  inst.ri_pos <- -1;
  inst.ri_counter <-
    (if r.Opcode.r_counted then begin
       let expected =
         match en.expected_fns.(rule_id) with
         | Some f -> f (boxed_params inst)
         | None ->
             invalid_arg
               ("Engine: counted rule " ^ r.Opcode.r_name ^ " has no expected binding")
       in
       expected - count_past_matches en rule_id inst tk.idx
     end
     else 0);
  en.stats.Engine.rule_allocs <- en.stats.Engine.rule_allocs + 1;
  if r.Opcode.r_counted && inst.ri_counter <= 0 then inst.ri_resolved <- 2
  else begin
    inst.ri_pos <- Vec.length en.live;
    Vec.push en.live inst
  end;
  Vec.push tk.insts inst;
  inst

(* --- activation --- *)

let enqueue en (tk : ctask) ~front =
  let r = en.rings.(tk.set) in
  if front then ring_push_front r tk else ring_push r tk;
  heap_push en tk;
  en.stats.Engine.activated <- en.stats.Engine.activated + 1;
  (* activated event: fields are the task payload *)
  en.ev_i <- tk.pay_i;
  en.ev_f <- tk.pay_f;
  en.ev_tg <- tk.pay_tg;
  en.ev_n <- tk.n_pay;
  fire_event en ~kind:0 ~set:tk.set ~label:(-1) ~index:tk.idx ~source_tid:tk.tid

let stamp en slot =
  if en.prog.Opcode.set_for_each.(slot) then begin
    let c = en.counters.(slot) in
    en.counters.(slot) <- c + 1;
    c
  end
  else 0

(* payload already evaluated into ar_* *)
let do_push en ~(parent_idx : int array) ~set ~nargs =
  let tk = new_task en ~set ~n_pay:nargs in
  Array.blit en.ar_i 0 tk.pay_i 0 nargs;
  Array.blit en.ar_f 0 tk.pay_f 0 nargs;
  Array.blit en.ar_tg 0 tk.pay_tg 0 nargs;
  (* child index: parent prefix up to the slot, then the stamp *)
  Array.fill tk.idx 0 en.width 0;
  Array.blit parent_idx 0 tk.idx 0 set;
  tk.idx.(set) <- stamp en set;
  enqueue en tk ~front:false

let push_initial en set_name payload =
  let set =
    let names = en.prog.Opcode.set_names in
    let rec find i =
      if i >= Array.length names then invalid_arg ("Engine: unknown task set " ^ set_name)
      else if names.(i) = set_name then i
      else find (i + 1)
    in
    find 0
  in
  let n = List.length payload in
  let tk = new_task en ~set ~n_pay:n in
  List.iteri
    (fun i v ->
      match (v : Value.t) with
      | Value.Int x ->
          tk.pay_i.(i) <- x;
          tk.pay_tg.(i) <- tg_int
      | Value.Float x ->
          tk.pay_f.(i) <- x;
          tk.pay_tg.(i) <- tg_float
      | Value.Bool b ->
          tk.pay_i.(i) <- (if b then 1 else 0);
          tk.pay_tg.(i) <- tg_bool)
    payload;
  Array.fill tk.idx 0 en.width 0;
  tk.idx.(set) <- stamp en set;
  enqueue en tk ~front:false

(* --- queue views --- *)

let pending_count en = Array.fold_left (fun acc r -> acc + r.rl) 0 en.rings

let min_pending_head en =
  let best = ref nil_task in
  for i = 0 to Array.length en.rings - 1 do
    let h = ring_peek en.rings.(i) in
    if h != nil_task && (!best == nil_task || idx_cmp h.idx !best.idx < 0) then best := h
  done;
  !best

let uncommitted_remaining en =
  en.running > 0 || Vec.length en.waiting > 0 || pending_count en > 0

(* --- finishing --- *)

let vec_truncate v n =
  while Vec.length v > n do
    ignore (Vec.pop v)
  done

let waiting_remove en tk =
  let n = Vec.length en.waiting in
  let j = ref 0 in
  for i = 0 to n - 1 do
    let w = Vec.get en.waiting i in
    if w != tk then begin
      Vec.set en.waiting !j w;
      incr j
    end
  done;
  vec_truncate en.waiting !j

let release_task_rules en tk =
  Vec.iter
    (fun inst ->
      if inst.ri_pos >= 0 then begin
        let last = Vec.pop en.live in
        if last != inst then begin
          Vec.set en.live inst.ri_pos last;
          last.ri_pos <- inst.ri_pos
        end;
        inst.ri_pos <- -1
      end;
      inst.ri_parent <- nil_task;
      Vec.push en.free_insts inst)
    tk.insts;
  Vec.clear tk.insts

(* outcome codes *)
let oc_commit = 0

let oc_abort = 1

let oc_retry = 2

let finish en (tk : ctask) outcome =
  if tk.status = s_running then en.running <- en.running - 1
  else if tk.status = s_waiting then waiting_remove en tk;
  release_task_rules en tk;
  if outcome = oc_commit then begin
    tk.status <- s_committed;
    en.stats.Engine.committed <- en.stats.Engine.committed + 1;
    Vec.push en.free_tasks tk
  end
  else if outcome = oc_abort then begin
    tk.status <- s_squashed;
    en.stats.Engine.aborted <- en.stats.Engine.aborted + 1;
    Vec.push en.free_tasks tk
  end
  else begin
    tk.status <- s_squashed;
    en.stats.Engine.retried <- en.stats.Engine.retried + 1;
    (* TLS-style squash and re-execute in place: same index and payload,
       re-activated at the front of its queue *)
    let again = new_task en ~set:tk.set ~n_pay:tk.n_pay in
    Array.blit tk.idx 0 again.idx 0 en.width;
    Array.blit tk.pay_i 0 again.pay_i 0 tk.n_pay;
    Array.blit tk.pay_f 0 again.pay_f 0 tk.n_pay;
    Array.blit tk.pay_tg 0 again.pay_tg 0 tk.n_pay;
    enqueue en again ~front:true;
    Vec.push en.free_tasks tk
  end

(* --- stepping (with fused op latency) --- *)

let rc_stepped = 0

let rc_blocked = 1

let rc_finished = 2 (* + outcome in en.step_lat's sibling below *)

(* stack-slot-0 coercions with the tag check inline (no float crosses a
   call boundary on the non-error path) *)
let stack0_int en =
  if en.st_tg.(0) = tg_int then en.st_i.(0)
  else int_type_error en.st_tg.(0) en.st_i.(0) en.st_f.(0)

let stack0_truthy en =
  if en.st_tg.(0) = tg_bool || en.st_tg.(0) = tg_int then en.st_i.(0) <> 0
  else truthy_type_error en.st_tg.(0) en.st_i.(0) en.st_f.(0)

let eval_args en tk (args : Opcode.eop array array) =
  let n = Array.length args in
  for i = 0 to n - 1 do
    eval en tk nil_inst args.(i);
    en.ar_i.(i) <- en.st_i.(0);
    en.ar_f.(i) <- en.st_f.(0);
    en.ar_tg.(i) <- en.st_tg.(0)
  done;
  n

let array_missing en arr = invalid_arg ("State: unknown array " ^ en.prog.Opcode.array_names.(arr))

let bounds_err en arr i len =
  invalid_arg
    (Printf.sprintf "State: %s[%d] out of bounds (length %d)" en.prog.Opcode.array_names.(arr) i
       len)

let base_of en name =
  match Hashtbl.find_opt en.base_memo name with
  | Some b -> b
  | None ->
      let b = State.address_of en.st name 0 in
      Hashtbl.add en.base_memo name b;
      b

(* burst the prim's traced accesses at mlp-wide waves (replicates
   Memory.access_burst ~dependent:false over the drained trace) *)
let prim_mem_latency en ~now =
  let mlp = max 1 en.cfg.Config.mlp in
  let wave_now = ref now and wave_max = ref now and k = ref 0 in
  State.iter_trace en.st (fun a ->
      if !k = mlp then begin
        wave_now := !wave_max;
        k := 0
      end;
      let base = base_of en a.State.array_name in
      let c =
        Memory.access en.mem ~now:!wave_now
          ~addr:(base + (8 * a.State.index))
          ~is_write:a.State.is_write
      in
      if c > !wave_max then wave_max := c;
      incr k);
  State.clear_trace en.st;
  !wave_max

(* step one op of [tk] at cycle [now].  Returns [rc_stepped] (with
   [en.step_lat] set), [rc_blocked], or [rc_finished + outcome code].
   Mirrors Engine.step: the commit-on-empty-continuation does not count
   as an executed op. *)
let step en (tk : ctask) ~now =
  match en.prog.Opcode.code.(tk.pc) with
  | Opcode.I_commit ->
      finish en tk oc_commit;
      rc_finished + oc_commit
  | op -> begin
      en.stats.Engine.ops_executed <- en.stats.Engine.ops_executed + 1;
      match op with
      | Opcode.I_commit -> assert false
      | Opcode.I_let { dst; e; next } ->
          eval en tk nil_inst e;
          tk.reg_i.(dst) <- en.st_i.(0);
          tk.reg_f.(dst) <- en.st_f.(0);
          tk.reg_tg.(dst) <- en.st_tg.(0);
          tk.pc <- next;
          en.step_lat <- 1;
          rc_stepped
      | Opcode.I_load { dst; arr; addr; next } ->
          eval en tk nil_inst addr;
          let i = stack0_int en in
          begin
            match en.arr_data.(arr) with
            | A_int a ->
                if i < 0 || i >= Array.length a then bounds_err en arr i (Array.length a);
                tk.reg_i.(dst) <- a.(i);
                tk.reg_tg.(dst) <- tg_int
            | A_float a ->
                if i < 0 || i >= Array.length a then bounds_err en arr i (Array.length a);
                tk.reg_f.(dst) <- a.(i);
                tk.reg_tg.(dst) <- tg_float
            | A_missing -> array_missing en arr
          end;
          let completion =
            Memory.access en.mem ~now ~addr:(en.arr_base.(arr) + (8 * i)) ~is_write:false
          in
          tk.pc <- next;
          en.step_lat <- imax 1 (completion - now);
          rc_stepped
      | Opcode.I_store { arr; addr; v; next } ->
          eval en tk nil_inst addr;
          let i = stack0_int en in
          eval en tk nil_inst v;
          let tg = en.st_tg.(0) in
          begin
            match en.arr_data.(arr) with
            | A_int a ->
                if tg <> tg_int then
                  invalid_arg
                    (Printf.sprintf "State: type mismatch writing %s to %s"
                       (vstr tg en.st_i.(0) en.st_f.(0))
                       en.prog.Opcode.array_names.(arr));
                if i < 0 || i >= Array.length a then bounds_err en arr i (Array.length a);
                a.(i) <- en.st_i.(0)
            | A_float a ->
                if tg = tg_bool then
                  invalid_arg
                    (Printf.sprintf "State: type mismatch writing %s to %s"
                       (vstr tg en.st_i.(0) en.st_f.(0))
                       en.prog.Opcode.array_names.(arr));
                if i < 0 || i >= Array.length a then bounds_err en arr i (Array.length a);
                a.(i) <- (if tg = tg_int then float_of_int en.st_i.(0) else en.st_f.(0))
            | A_missing -> array_missing en arr
          end;
          (* posted write: the task proceeds next cycle while the line
             transfer still occupies cache and link *)
          ignore (Memory.access en.mem ~now ~addr:(en.arr_base.(arr) + (8 * i)) ~is_write:true);
          tk.pc <- next;
          en.step_lat <- 1;
          rc_stepped
      | Opcode.I_push { set; args; next } ->
          let n = eval_args en tk args in
          do_push en ~parent_idx:tk.idx ~set ~nargs:n;
          tk.pc <- next;
          en.step_lat <- 1;
          rc_stepped
      | Opcode.I_push_iter { set; lo; hi; ivar; args; next } ->
          eval en tk nil_inst lo;
          let lo_v = stack0_int en in
          eval en tk nil_inst hi;
          let hi_v = stack0_int en in
          for i = lo_v to hi_v - 1 do
            tk.reg_i.(ivar) <- i;
            tk.reg_tg.(ivar) <- tg_int;
            let n = eval_args en tk args in
            do_push en ~parent_idx:tk.idx ~set ~nargs:n
          done;
          tk.pc <- next;
          en.step_lat <- imax 1 (hi_v - lo_v);
          rc_stepped
      | Opcode.I_alloc { handle; rule; args; next; site = _ } ->
          let n = eval_args en tk args in
          let inst = alloc_rule en tk ~rule_id:rule ~nargs:n in
          tk.handles.(handle) <- inst;
          tk.pc <- next;
          en.step_lat <- 1;
          rc_stepped
      | Opcode.I_await { dst; handle; handle_name; next } -> begin
          let inst = tk.handles.(handle) in
          if inst == nil_inst then
            invalid_arg ("Engine: Await on unallocated handle " ^ handle_name);
          if inst.ri_resolved <> 0 then begin
            tk.reg_i.(dst) <- (if inst.ri_resolved = 2 then 1 else 0);
            tk.reg_tg.(dst) <- tg_bool;
            tk.pc <- next;
            en.step_lat <- 1;
            rc_stepped
          end
          else begin
            tk.status <- s_waiting;
            tk.await_dst <- dst;
            tk.await_inst <- inst;
            en.running <- en.running - 1;
            Vec.push en.waiting tk;
            rc_blocked
          end
        end
      | Opcode.I_emit { label; args; next } ->
          let n = Array.length args in
          for i = 0 to n - 1 do
            eval en tk nil_inst args.(i);
            en.em_i.(i) <- en.st_i.(0);
            en.em_f.(i) <- en.st_f.(0);
            en.em_tg.(i) <- en.st_tg.(0)
          done;
          en.ev_i <- en.em_i;
          en.ev_f <- en.em_f;
          en.ev_tg <- en.em_tg;
          en.ev_n <- n;
          fire_event en ~kind:1 ~set:tk.set ~label ~index:tk.idx ~source_tid:tk.tid;
          tk.bcast <- true;
          tk.pc <- next;
          en.step_lat <- 1;
          rc_stepped
      | Opcode.I_if { c; then_pc; else_pc } ->
          eval en tk nil_inst c;
          tk.pc <- (if stack0_truthy en then then_pc else else_pc);
          en.step_lat <- 1;
          rc_stepped
      | Opcode.I_abort ->
          finish en tk oc_abort;
          rc_finished + oc_abort
      | Opcode.I_retry ->
          finish en tk oc_retry;
          rc_finished + oc_retry
      | Opcode.I_prim { dsts; prim; name; args; next } -> begin
          match en.prim_impls.(prim) with
          | None -> invalid_arg ("Engine: unbound prim " ^ name)
          | Some impl ->
              en.prim_count.(prim) <- en.prim_count.(prim) + 1;
              let boxed =
                Array.to_list
                  (Array.map
                     (fun e ->
                       eval en tk nil_inst e;
                       if en.st_tg.(0) = tg_int then Value.Int en.st_i.(0)
                       else if en.st_tg.(0) = tg_float then Value.Float en.st_f.(0)
                       else Value.Bool (en.st_i.(0) <> 0))
                     args)
              in
              let results =
                impl { Spec.state = en.st; Spec.task_index = Index.of_array tk.idx } boxed
              in
              let nr = List.length results and nd = Array.length dsts in
              if nr <> nd then
                invalid_arg
                  (Printf.sprintf "Engine: prim %s returned %d values, expected %d" name nr nd);
              List.iteri
                (fun i (v : Value.t) ->
                  let d = dsts.(i) in
                  match v with
                  | Value.Int x ->
                      tk.reg_i.(d) <- x;
                      tk.reg_tg.(d) <- tg_int
                  | Value.Float x ->
                      tk.reg_f.(d) <- x;
                      tk.reg_tg.(d) <- tg_float
                  | Value.Bool b ->
                      tk.reg_i.(d) <- (if b then 1 else 0);
                      tk.reg_tg.(d) <- tg_bool)
                results;
              let compute = en.prim_lat.(prim) in
              let completion = prim_mem_latency en ~now in
              tk.pc <- next;
              en.step_lat <- imax compute (completion - now);
              rc_stepped
        end
    end

(* --- minimum resolution --- *)

let resolve_pending en =
  (* 1. broadcast a change of the minimum uncommitted task *)
  let mu0 = min_uncommitted en in
  if mu0 != nil_task && mu0.tid <> en.last_min_broadcast then begin
    en.last_min_broadcast <- mu0.tid;
    en.ev_i <- mu0.pay_i;
    en.ev_f <- mu0.pay_f;
    en.ev_tg <- mu0.pay_tg;
    en.ev_n <- mu0.n_pay;
    fire_min_changed en ~index:mu0.idx ~source_tid:mu0.tid
  end;
  (* 2. fire otherwise clauses for minimal waiting parents *)
  let mu = min_uncommitted en in
  let mw = ref nil_task in
  for i = 0 to Vec.length en.waiting - 1 do
    let w = Vec.get en.waiting i in
    if !mw == nil_task || idx_cmp w.idx !mw.idx < 0 then mw := w
  done;
  for i = 0 to Vec.length en.waiting - 1 do
    let w = Vec.get en.waiting i in
    let inst = w.await_inst in
    if inst != nil_inst && inst.ri_resolved = 0 then begin
      let rule = en.prog.Opcode.rules.(inst.ri_rule) in
      let minimal =
        if rule.Opcode.r_min_waiting then !mw == nil_task || idx_cmp w.idx !mw.idx = 0
        else mu == nil_task || idx_cmp w.idx mu.idx = 0
      in
      if minimal then begin
        en.stats.Engine.otherwise_fired <- en.stats.Engine.otherwise_fired + 1;
        resolve en inst rule.Opcode.r_otherwise
      end
    end
  done

(* wake every waiting task whose rule resolved, in ascending index
   order (stable w.r.t. the newest-first waiting order); the
   woken tasks are left in [en.resumed] *)
let resume_ready en =
  Vec.clear en.resumed;
  let n = Vec.length en.waiting in
  for i = n - 1 downto 0 do
    let w = Vec.get en.waiting i in
    let inst = w.await_inst in
    if inst == nil_inst || inst.ri_resolved <> 0 then Vec.push en.resumed w
  done;
  let j = ref 0 in
  for i = 0 to n - 1 do
    let w = Vec.get en.waiting i in
    let inst = w.await_inst in
    if inst != nil_inst && inst.ri_resolved = 0 then begin
      Vec.set en.waiting !j w;
      incr j
    end
  done;
  vec_truncate en.waiting !j;
  let m = Vec.length en.resumed in
  for i = 1 to m - 1 do
    let x = Vec.get en.resumed i in
    let k = ref (i - 1) in
    while !k >= 0 && idx_cmp (Vec.get en.resumed !k).idx x.idx > 0 do
      Vec.set en.resumed (!k + 1) (Vec.get en.resumed !k);
      decr k
    done;
    Vec.set en.resumed (!k + 1) x
  done;
  for i = 0 to m - 1 do
    let w = Vec.get en.resumed i in
    let inst = w.await_inst in
    if inst != nil_inst then begin
      w.reg_i.(w.await_dst) <- (if inst.ri_resolved = 2 then 1 else 0);
      w.reg_tg.(w.await_dst) <- tg_bool;
      match en.prog.Opcode.code.(w.pc) with
      | Opcode.I_await { next; _ } -> w.pc <- next
      | _ -> assert false
    end;
    w.await_inst <- nil_inst;
    w.await_dst <- -1;
    w.status <- s_running;
    en.running <- en.running + 1
  done

let deadlocked en =
  en.running = 0
  && pending_count en = 0
  && Vec.length en.waiting > 0
  && begin
       resolve_pending en;
       let all_stuck = ref true in
       Vec.iter
         (fun w ->
           let inst = w.await_inst in
           if inst == nil_inst || inst.ri_resolved <> 0 then all_stuck := false)
         en.waiting;
       !all_stuck
     end

(* --- construction --- *)

let create ~cfg ~sink spec bindings st =
  begin
    match Spec.validate spec with
    | Ok () -> ()
    | Error es -> invalid_arg ("Engine.create: invalid spec: " ^ String.concat "; " es)
  end;
  let prog = Opcode.compile spec in
  let width = max prog.Opcode.n_sets 1 in
  let arr_data =
    Array.map
      (fun name ->
        if State.has_array st name then begin
          match State.int_array st name with
          | a -> A_int a
          | exception Invalid_argument _ -> A_float (State.float_array st name)
        end
        else A_missing)
      prog.Opcode.array_names
  in
  let arr_base =
    Array.map
      (fun name -> if State.has_array st name then State.address_of st name 0 else 0)
      prog.Opcode.array_names
  in
  let ar_cap = max 1 (max prog.Opcode.max_push_args prog.Opcode.max_rule_params) in
  let em_i = Array.make prog.Opcode.max_event_fields 0 in
  let em_f = Array.make prog.Opcode.max_event_fields 0.0 in
  let em_tg = Array.make prog.Opcode.max_event_fields tg_int in
  {
    prog;
    st;
    cfg;
    mem = Memory.create ~sink cfg;
    sink;
    stats =
      {
        Engine.activated = 0;
        committed = 0;
        aborted = 0;
        retried = 0;
        events_fired = 0;
        otherwise_fired = 0;
        clause_resolutions = 0;
        ops_executed = 0;
        rule_allocs = 0;
      };
    width;
    counters = Array.make (max prog.Opcode.n_sets 1) 0;
    rings = Array.init (max prog.Opcode.n_sets 1) (fun _ -> ring_create ());
    next_tid = 0;
    running = 0;
    waiting = Vec.create ();
    h_idx = Array.make (8 * width) 0;
    h_task = Array.make 8 nil_task;
    h_tid = Array.make 8 0;
    h_len = 0;
    live = Vec.create ();
    snap = Vec.create ();
    free_tasks = Vec.create ();
    free_insts = Vec.create ();
    last_min_broadcast = -1;
    log = Vec.create ();
    prim_impls =
      Array.map (fun name -> List.assoc_opt name bindings.Spec.prims) prog.Opcode.prim_names;
    prim_count = Array.make (max 1 (Array.length prog.Opcode.prim_names)) 0;
    prim_lat =
      Array.map
        (fun name ->
          match List.assoc_opt name cfg.Config.prim_latency with
          | Some l -> l
          | None -> 4)
        prog.Opcode.prim_names;
    expected_fns =
      Array.map
        (fun (r : Opcode.crule) -> List.assoc_opt r.Opcode.r_name bindings.Spec.expected)
        prog.Opcode.rules;
    arr_data;
    arr_base;
    base_memo = Hashtbl.create 16;
    st_i = Array.make prog.Opcode.max_stack 0;
    st_f = Array.make prog.Opcode.max_stack 0.0;
    st_tg = Array.make prog.Opcode.max_stack tg_int;
    ev_i = em_i;
    ev_f = em_f;
    ev_tg = em_tg;
    ev_n = 0;
    cx_earlier = false;
    cx_later = false;
    em_i;
    em_f;
    em_tg;
    ar_i = Array.make ar_cap 0;
    ar_f = Array.make ar_cap 0.0;
    ar_tg = Array.make ar_cap tg_int;
    resumed = Vec.create ();
    step_lat = 1;
  }

(* --- the cycle loop --- *)

type result = {
  r_cycles : int;
  r_active_op_cycles : int;
  r_peak_in_flight : int;
  r_total_stage_ops : int;
  r_minor_words : float;  (** minor-heap words allocated inside the cycle loop *)
  r_stats : Engine.stats;
  r_attr : Attribution.t;
  r_mem : Memory.t;
}

let pipe_prepend p tk =
  if p.cp_n = Array.length p.cp_win then begin
    let nw = Array.make (max 8 (2 * p.cp_n)) nil_task in
    Array.blit p.cp_win 0 nw 0 p.cp_n;
    p.cp_win <- nw
  end;
  Array.blit p.cp_win 0 p.cp_win 1 p.cp_n;
  p.cp_win.(0) <- tk;
  p.cp_n <- p.cp_n + 1

(* attribution bucket codes inside the flat matrix *)
let b_busy = 0

let b_mem = 1

let b_rdv = 2

let b_queue = 3

let b_squash = 4

let b_idle = 5

let run ?timeline ~cfg ~sink ~spec ~bindings ~state ~initial () =
  let graph = Bdfg.of_spec spec in
  let en = create ~cfg ~sink spec bindings state in
  let prog = en.prog in
  let n_sets = prog.Opcode.n_sets in
  State.set_tracing state true;
  List.iter (fun (set, payload) -> push_initial en set payload) initial;
  State.clear_trace state;
  let next_pipe = ref 0 in
  let pipes =
    List.concat_map
      (fun (ts : Spec.task_set) ->
        let set_name = ts.Spec.ts_name in
        let slot = Spec.task_set_slot spec set_name in
        let stage_ops = Bdfg.stage_count graph set_name in
        let capacity = max 4 (stage_ops * cfg.Config.window_factor) in
        List.init (Config.pipeline_count cfg set_name) (fun _ ->
            let pipe_id = !next_pipe in
            incr next_pipe;
            {
              cp_set = slot;
              cp_set_name = set_name;
              cp_id = pipe_id;
              cp_capacity = capacity;
              cp_stage_ops = stage_ops;
              cp_win = Array.make (capacity + 4) nil_task;
              cp_n = 0;
              cp_stepped = false;
            }))
      spec.Spec.task_sets
    |> Array.of_list
  in
  let n_pipes = Array.length pipes in
  let first_pipe = Array.make (max n_sets 1) (-1) in
  Array.iter (fun p -> if first_pipe.(p.cp_set) < 0 then first_pipe.(p.cp_set) <- p.cp_id) pipes;
  let total_stage_ops = Array.fold_left (fun acc p -> acc + p.cp_stage_ops) 0 pipes in
  begin
    match timeline with
    | Some tl -> Timeline.start tl ~total_stage_ops ~bytes_per_cycle:(Config.bytes_per_cycle cfg)
    | None -> ()
  end;
  let instrumented = Sink.enabled sink in
  let matrix = Array.make (max 1 (n_sets * 6)) 0 in
  let charge set b n = matrix.((set * 6) + b) <- matrix.((set * 6) + b) + n in
  let sq_set = Vec.create () and sq_ops = Vec.create () in
  let pops_left = Array.make (max n_sets 1) 0 in
  let waiting_sets = Array.make (max n_sets 1) false in
  let scratch = Vec.create () in
  let cycle = ref 0 in
  let active_op_cycles = ref 0 in
  let peak_in_flight = ref 0 in
  let in_flight_count () = Array.fold_left (fun acc p -> acc + p.cp_n) 0 pipes in
  let pop_from set =
    let r = en.rings.(set) in
    if r.rl = 0 then nil_task
    else begin
      let tk = ring_pop r in
      tk.status <- s_running;
      en.running <- en.running + 1;
      tk
    end
  in
  (* the allocator reserves a priority lane for the minimum uncommitted
     task (the liveness argument of §4.2.1 under finite rule lanes) *)
  let must_stall_alloc tk =
    Vec.length en.live >= cfg.Config.rule_lanes
    &&
    let mu = min_uncommitted en in
    mu != nil_task && idx_cmp tk.idx mu.idx <> 0
  in
  let place_resumed ~now =
    let m = Vec.length en.resumed in
    for i = 0 to m - 1 do
      let w = Vec.get en.resumed i in
      let best = ref (-1) in
      for pi = 0 to n_pipes - 1 do
        let p = pipes.(pi) in
        if p.cp_set = w.set && (!best < 0 || p.cp_n < pipes.(!best).cp_n) then best := pi
      done;
      if !best < 0 then failwith "Accelerator.run: no pipeline for resumed task";
      let p = pipes.(!best) in
      if instrumented then begin
        Sink.emit sink ~ts:now (Event.Rendezvous_resume { set = p.cp_set_name; tid = w.tid });
        Sink.emit sink ~ts:(now + 1)
          (Event.Task_dispatch { set = p.cp_set_name; pipe = p.cp_id; tid = w.tid })
      end;
      w.fr_ready <- now + 1;
      w.fr_ops <- 0;
      pipe_prepend p w
    done
  in
  let guard = ref 0 in
  (* hoisted per-cycle scratch: a [ref] inside the loop body would
     allocate every iteration *)
  let any_finish = ref false in
  let next_ready = ref max_int in
  let in_window = ref false in
  let minor_start = Gc.minor_words () in
  while uncommitted_remaining en do
    incr guard;
    if !guard > 50_000_000 then failwith "Accelerator.run: cycle budget exceeded";
    let now = !cycle in
    (* 1. issue: each pipeline may accept one task per cycle, capped by
       queue bank bandwidth per set *)
    Array.fill pops_left 0 (Array.length pops_left) cfg.Config.queue_banks;
    for pi = 0 to n_pipes - 1 do
      let p = pipes.(pi) in
      let left = pops_left.(p.cp_set) in
      if p.cp_n >= p.cp_capacity then begin
        if instrumented && pending_count en > 0 then
          Sink.emit sink ~ts:now (Event.Queue_full { set = p.cp_set_name; pipe = p.cp_id })
      end
      else if left > 0 then begin
        let tk = pop_from p.cp_set in
        if tk != nil_task then begin
          pops_left.(p.cp_set) <- left - 1;
          if instrumented then
            Sink.emit sink ~ts:now
              (Event.Task_dispatch { set = p.cp_set_name; pipe = p.cp_id; tid = tk.tid });
          tk.fr_ready <- now;
          tk.fr_ops <- 0;
          pipe_prepend p tk
        end
      end
    done;
    (* priority admission: the globally minimum task must always reach
       the rule engines, even through a full window *)
    begin
      let head = min_pending_head en in
      let mu = min_uncommitted en in
      if head != nil_task && mu != nil_task && idx_cmp head.idx mu.idx = 0 then begin
        in_window := false;
        for pi = 0 to n_pipes - 1 do
          let p = pipes.(pi) in
          for i = 0 to p.cp_n - 1 do
            if p.cp_win.(i).tid = head.tid then in_window := true
          done
        done;
        if not !in_window then begin
          let tk = pop_from head.set in
          if tk != nil_task then begin
            let p = pipes.(first_pipe.(tk.set)) in
            if instrumented then
              Sink.emit sink ~ts:now
                (Event.Task_dispatch { set = p.cp_set_name; pipe = p.cp_id; tid = tk.tid });
            tk.fr_ready <- now;
            tk.fr_ops <- 0;
            pipe_prepend p tk
          end
        end
      end
    end;
    peak_in_flight := imax !peak_in_flight (in_flight_count ());
    (* 2. execute one op for every ready in-flight task *)
    any_finish := false;
    for pi = 0 to n_pipes - 1 do
      let p = pipes.(pi) in
      Vec.clear scratch;
      let old_n = p.cp_n in
      for i = 0 to old_n - 1 do
        let f = p.cp_win.(i) in
        if f.fr_ready > now then Vec.push scratch f
        else begin
          match prog.Opcode.code.(f.pc) with
          | Opcode.I_alloc _ when must_stall_alloc f ->
              (* stall at the rule-engine allocator *)
              f.fr_ready <- now + 1;
              Vec.push scratch f
          | _ -> begin
              let tid = f.tid in
              let rc = step en f ~now in
              if rc = rc_stepped then begin
                incr active_op_cycles;
                p.cp_stepped <- true;
                f.fr_ops <- f.fr_ops + 1;
                f.fr_ready <- now + en.step_lat;
                Vec.push scratch f
              end
              else if rc = rc_blocked then begin
                incr active_op_cycles;
                p.cp_stepped <- true;
                f.fr_ops <- f.fr_ops + 1;
                if instrumented then
                  Sink.emit sink ~ts:now
                    (Event.Rendezvous_park { set = p.cp_set_name; pipe = p.cp_id; tid });
                any_finish := true
              end
              else begin
                let outcome = rc - rc_finished in
                incr active_op_cycles;
                p.cp_stepped <- true;
                if outcome <> oc_commit then begin
                  Vec.push sq_set p.cp_set;
                  Vec.push sq_ops (f.fr_ops + 1)
                end;
                if instrumented then
                  Sink.emit sink ~ts:now
                    (Event.Task_finish
                       {
                         set = p.cp_set_name;
                         pipe = p.cp_id;
                         tid;
                         outcome =
                           (if outcome = oc_commit then Event.Commit
                            else if outcome = oc_abort then Event.Abort
                            else Event.Retry);
                       });
                any_finish := true
              end
            end
        end
      done;
      (* survivors are re-consed in visit order: the new window is
         their reverse *)
      let ns = Vec.length scratch in
      for i = 0 to ns - 1 do
        p.cp_win.(i) <- Vec.get scratch (ns - 1 - i)
      done;
      for i = ns to old_n - 1 do
        p.cp_win.(i) <- nil_task
      done;
      p.cp_n <- ns
    done;
    if !any_finish then resolve_pending en;
    (* 3. wake resolved rendezvous back into their pipelines *)
    resume_ready en;
    let n_resumed = Vec.length en.resumed in
    place_resumed ~now;
    (* 4. advance time: fast-forward to the next ready timestamp when
       everything in flight is waiting out latency (the event wheel) *)
    next_ready := max_int;
    for pi = 0 to n_pipes - 1 do
      let p = pipes.(pi) in
      for i = 0 to p.cp_n - 1 do
        if p.cp_win.(i).fr_ready < !next_ready then next_ready := p.cp_win.(i).fr_ready
      done
    done;
    (* manual loop: [Array.exists] allocates a closure per call *)
    let have_room = ref false in
    for pi = 0 to n_pipes - 1 do
      if pipes.(pi).cp_n < pipes.(pi).cp_capacity then have_room := true
    done;
    let can_issue = pending_count en > 0 && !have_room in
    let next =
      if can_issue || n_resumed > 0 then now + 1
      else if !next_ready < max_int then imax (now + 1) !next_ready
      else now + 1
    in
    (* stall attribution: charge each pipeline exactly (next - now)
       cycles so the buckets decompose cycles x pipelines *)
    let dt = next - now in
    Array.fill waiting_sets 0 (Array.length waiting_sets) false;
    for i = 0 to Vec.length en.waiting - 1 do
      waiting_sets.((Vec.get en.waiting i).set) <- true
    done;
    let pending_now = pending_count en in
    for pi = 0 to n_pipes - 1 do
      let p = pipes.(pi) in
      let cls =
        if p.cp_stepped then b_busy
        else if p.cp_n > 0 then b_mem
        else if waiting_sets.(p.cp_set) then b_rdv
        else if pending_now > 0 && pops_left.(p.cp_set) = 0 then b_queue
        else b_idle
      in
      charge p.cp_set cls 1;
      if dt > 1 then begin
        let wait_cls =
          if p.cp_n > 0 then b_mem else if waiting_sets.(p.cp_set) then b_rdv else b_idle
        in
        charge p.cp_set wait_cls (dt - 1)
      end;
      p.cp_stepped <- false
    done;
    (* squash reclassification, newest first; clamp to the busy
       balance accrued so far *)
    for i = Vec.length sq_set - 1 downto 0 do
      let set = Vec.get sq_set i and ops = Vec.get sq_ops i in
      let moved = imin ops matrix.((set * 6) + b_busy) in
      matrix.((set * 6) + b_busy) <- matrix.((set * 6) + b_busy) - moved;
      matrix.((set * 6) + b_squash) <- matrix.((set * 6) + b_squash) + moved
    done;
    Vec.clear sq_set;
    Vec.clear sq_ops;
    (* deadlock detection *)
    if
      (not can_issue)
      && !next_ready = max_int
      && n_resumed = 0
      && uncommitted_remaining en
    then begin
      resolve_pending en;
      resume_ready en;
      if Vec.length en.resumed = 0 then begin
        if deadlocked en then failwith "Accelerator.run: deadlock in rule resolution"
      end
      else place_resumed ~now
    end;
    begin
      match timeline with
      | Some tl when Timeline.due tl ~upto:next ->
          let mst = Memory.stats en.mem in
          Timeline.tick tl ~upto:next
            {
              Timeline.in_flight = in_flight_count ();
              pending = pending_count en;
              active_ops = !active_op_cycles;
              mem_hits = mst.Memory.hits;
              mem_misses = mst.Memory.misses;
              link_bytes = mst.Memory.bytes_over_link;
            }
      | Some _ | None -> ()
    end;
    cycle := next
  done;
  let minor_words = Gc.minor_words () -. minor_start in
  State.set_tracing state false;
  begin
    match timeline with
    | Some tl ->
        let mst = Memory.stats en.mem in
        Timeline.finish tl ~cycles:!cycle
          {
            Timeline.in_flight = in_flight_count ();
            pending = pending_count en;
            active_ops = !active_op_cycles;
            mem_hits = mst.Memory.hits;
            mem_misses = mst.Memory.misses;
            link_bytes = mst.Memory.bytes_over_link;
          }
    | None -> ()
  end;
  (* replay the flat attribution matrix into the shared Attribution.t
     (sets in pipeline order = first-charge order) *)
  let attr = Attribution.create () in
  let seen = Array.make (max n_sets 1) false in
  Array.iter
    (fun p ->
      if not seen.(p.cp_set) then begin
        seen.(p.cp_set) <- true;
        List.iteri
          (fun b bucket -> Attribution.charge attr ~set:p.cp_set_name bucket matrix.((p.cp_set * 6) + b))
          Attribution.buckets
      end)
    pipes;
  {
    r_cycles = !cycle;
    r_active_op_cycles = !active_op_cycles;
    r_peak_in_flight = !peak_in_flight;
    r_total_stage_ops = total_stage_ops;
    r_minor_words = minor_words;
    r_stats = en.stats;
    r_attr = attr;
    r_mem = en.mem;
  }
