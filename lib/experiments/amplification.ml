module App_instance = Agp_apps.App_instance
module Engine = Agp_core.Engine
module Semantics = Agp_core.Semantics
module Table = Agp_util.Table

type row = {
  amp_app : string;
  necessary : int;
  activated : int;
  committed : int;
  squashed : int;
  amplification : float;
}

let validated name check =
  match check () with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "Amplification: %s produced a wrong result: %s" name e)

let measure ?(workers = 10) (app : App_instance.t) =
  let seq = app.App_instance.fresh () in
  let seq_report =
    Semantics.run ~initial:seq.App_instance.initial (Semantics.oracle ()) app.App_instance.spec
      seq.App_instance.bindings seq.App_instance.state
  in
  validated app.App_instance.app_name seq.App_instance.check;
  let par = app.App_instance.fresh () in
  let par_report =
    Semantics.run ~initial:par.App_instance.initial
      (Semantics.pipelined ~workers ())
      app.App_instance.spec par.App_instance.bindings par.App_instance.state
  in
  validated app.App_instance.app_name par.App_instance.check;
  let s = par_report.Semantics.stats in
  let necessary = seq_report.Semantics.stats.Engine.committed in
  {
    amp_app = app.App_instance.app_name;
    necessary;
    activated = s.Engine.activated;
    committed = s.Engine.committed;
    squashed = s.Engine.aborted + s.Engine.retried;
    amplification =
      (if necessary = 0 then 1.0 else float_of_int s.Engine.activated /. float_of_int necessary);
  }

let table ?(workers = 10) ?(scale = Workloads.Small) ?(seed = 42) () =
  List.map (measure ~workers) (Workloads.all scale ~seed)

let print rows =
  let t =
    Table.create [ "app"; "necessary"; "activated"; "committed"; "squashed"; "amplification" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.amp_app;
          string_of_int r.necessary;
          string_of_int r.activated;
          string_of_int r.committed;
          string_of_int r.squashed;
          Table.cell_ratio r.amplification;
        ])
    rows;
  Table.print t
