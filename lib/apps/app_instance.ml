type run = {
  state : Agp_core.State.t;
  bindings : Agp_core.Spec.bindings;
  initial : (string * Agp_core.Value.t list) list;
  check : unit -> (unit, string) result;
}

type t = {
  app_name : string;
  spec : Agp_core.Spec.t;
  fresh : unit -> run;
  kernel_flops : (string * int) list;
  fpga_ilp : int;
  sw_task_overhead : int;
  cpu_flops_per_cycle : float;
  fpga_mlp : int;
  graph_source : (Agp_graph.Csr.t * int) option;
}

let run_sequential t =
  let r = t.fresh () in
  let report =
    Agp_core.Semantics.run ~initial:r.initial (Agp_core.Semantics.oracle ()) t.spec r.bindings
      r.state
  in
  (report, r)

let run_runtime ?workers t =
  let r = t.fresh () in
  let report =
    Agp_core.Semantics.run ~initial:r.initial
      (Agp_core.Semantics.pipelined ?workers ())
      t.spec r.bindings r.state
  in
  (report, r)

let check_both ?workers t =
  (* Both modes always execute and both checks always run, so a double
     fault surfaces as both failure messages rather than only the
     first. *)
  let label mode = Result.map_error (fun e -> mode ^ ": " ^ e) in
  let _, seq = run_sequential t in
  let _, par = run_runtime ?workers t in
  match (label "sequential" (seq.check ()), label "runtime" (par.check ())) with
  | Ok (), Ok () -> Ok ()
  | Error a, Error b -> Error (a ^ "; " ^ b)
  | (Error _ as e), Ok () | Ok (), (Error _ as e) -> e
