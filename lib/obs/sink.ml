module Vec = Agp_util.Vec

type ring = {
  cap : int;
  data : (int * Event.t) option array;
  mutable len : int;
  mutable next : int; (* slot the next event lands in *)
  mutable total : int;
}

type collect = {
  buf : (int * Event.t) Vec.t;
  limit : int;
  mutable over : int; (* events past [limit], counted not kept *)
}

type t =
  | Null
  | Ring of ring
  | Collect of collect

let null = Null

let ring ~capacity =
  if capacity <= 0 then invalid_arg "Sink.ring: capacity must be positive";
  Ring { cap = capacity; data = Array.make capacity None; len = 0; next = 0; total = 0 }

let collect ?(limit = max_int) () =
  if limit < 0 then invalid_arg "Sink.collect: limit must be non-negative";
  Collect { buf = Vec.create (); limit; over = 0 }

let enabled = function
  | Null -> false
  | Ring _ | Collect _ -> true

let emit t ~ts ev =
  match t with
  | Null -> ()
  | Ring r ->
      r.data.(r.next) <- Some (ts, ev);
      r.next <- (r.next + 1) mod r.cap;
      if r.len < r.cap then r.len <- r.len + 1;
      r.total <- r.total + 1
  | Collect c ->
      if Vec.length c.buf < c.limit then Vec.push c.buf (ts, ev) else c.over <- c.over + 1

let events = function
  | Null -> []
  | Ring r ->
      List.init r.len (fun k ->
          match r.data.((r.next - r.len + k + r.cap) mod r.cap) with
          | Some e -> e
          | None -> assert false)
  | Collect c -> Vec.to_list c.buf

let count = function
  | Null -> 0
  | Ring r -> r.total
  | Collect c -> Vec.length c.buf + c.over

let dropped = function
  | Null -> 0
  | Ring r -> r.total - r.len
  | Collect c -> c.over

let clear = function
  | Null -> ()
  | Ring r ->
      Array.fill r.data 0 r.cap None;
      r.len <- 0;
      r.next <- 0;
      r.total <- 0
  | Collect c ->
      Vec.clear c.buf;
      c.over <- 0
