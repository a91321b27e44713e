module Sink = Agp_obs.Sink
module Event = Agp_obs.Event

type t = {
  events : (int * Event.t) list;
  dropped : int;
  report : Semantics.report;
}

(* Tracing is the {!Semantics.pipelined} interpretation plus a collect
   sink: the scheduler is the very loop the runtime backend uses, so a
   traced execution has the same schedule as an untraced one by
   construction, not by keeping two copies of the loop in sync. *)
let run ?(initial = []) ?(workers = 4) ?(max_entries = 100_000) sp bindings st =
  let sink = Sink.collect ~limit:max_entries () in
  let interp =
    { (Semantics.pipelined ~workers ~max_steps:50_000_000 ()) with descr = "Trace.run"; sink }
  in
  let report = Semantics.run ~initial interp sp bindings st in
  { events = Sink.events sink; dropped = Sink.dropped sink; report }

(* A worker is busy from a task's dispatch to its park or finish; the
   closing tick shows how the interval ended. *)
let render_timeline ?(max_ticks = 60) t =
  let workers =
    1
    + List.fold_left
        (fun acc (_, ev) ->
          match ev with
          | Event.Task_dispatch { pipe; _ } -> max acc pipe
          | _ -> acc)
        0 t.events
  in
  let cells = Array.make_matrix workers (max_ticks + 1) "." in
  let paint pipe ~from ~upto cell =
    for tick = max 1 from to min max_ticks upto do
      cells.(pipe).(tick) <- cell
    done
  in
  let open_at = Hashtbl.create 64 in
  let close ts tid mark =
    match Hashtbl.find_opt open_at tid with
    | None -> ()
    | Some (pipe, since) ->
        Hashtbl.remove open_at tid;
        paint pipe ~from:since ~upto:(ts - 1) (string_of_int tid);
        paint pipe ~from:ts ~upto:ts mark
  in
  List.iter
    (fun (ts, ev) ->
      match ev with
      | Event.Task_dispatch { pipe; tid; _ } -> Hashtbl.replace open_at tid (pipe, ts)
      | Event.Rendezvous_park { tid; _ } -> close ts tid "~"
      | Event.Task_finish { tid; outcome = Event.Commit; _ } -> close ts tid (string_of_int tid)
      | Event.Task_finish { tid; _ } -> close ts tid "*"
      | _ -> ())
    t.events;
  (* tasks still running when capture stopped *)
  let last = List.fold_left (fun acc (ts, _) -> max acc ts) 0 t.events in
  Hashtbl.iter
    (fun tid (pipe, since) -> paint pipe ~from:since ~upto:last (string_of_int tid))
    open_at;
  let buf = Buffer.create 1024 in
  for w = 0 to workers - 1 do
    Buffer.add_string buf (Printf.sprintf "w%d: " w);
    for tick = 1 to max_ticks do
      Buffer.add_string buf (Printf.sprintf "%-8s" cells.(w).(tick))
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let set_of = function
  | Event.Task_dispatch { set; _ }
  | Event.Task_finish { set; _ }
  | Event.Rendezvous_park { set; _ }
  | Event.Rendezvous_resume { set; _ }
  | Event.Queue_full { set; _ } ->
      Some set
  | Event.Cache_access _ | Event.Link_transfer _ | Event.Arb_grant _ -> None

let summarize t =
  let sets = List.sort_uniq compare (List.filter_map (fun (_, ev) -> set_of ev) t.events) in
  List.map
    (fun set ->
      let count p =
        List.length (List.filter (fun (_, ev) -> set_of ev = Some set && p ev) t.events)
      in
      let finished o = function
        | Event.Task_finish { outcome; _ } -> outcome = o
        | _ -> false
      in
      ( set,
        count (finished Event.Commit),
        count (finished Event.Abort),
        count (finished Event.Retry),
        count (function Event.Rendezvous_park _ -> true | _ -> false) ))
    sets
