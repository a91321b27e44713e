(* The single binary-operator semantics table, shared by every
   evaluator in the repo.

   The stepper's postfix evaluator ({!Engine}) and the reference
   evaluator ({!Interp.eval_binop}) both execute binops through
   {!exec}, so the numeric-promotion rules, the comparison total order,
   the short-circuit boolean connectives and every error string are
   defined exactly once.  The property tests that compare the two
   evaluators therefore check everything around the table (postfix
   compilation, stack and register handling, coercions on store), not
   the table itself.

   The representation is the stepper's: a value is a (tag, int-slot,
   float-slot) triple spread across three parallel scratch arrays.
   This keeps the hot path allocation-free — the arrays are passed by
   reference and floats never cross a function boundary as arguments
   (OCaml boxes float arguments of non-inlined calls), which is what the
   simulator's minor-words-per-cycle gate measures.  The reference
   evaluator pays a tiny per-call scratch to adapt [Value.t]s. *)

(* value tags on the scratch stacks / frames *)
let tg_int = 0

let tg_float = 1

let tg_bool = 2

let tg_unbound = 3

let vstr tg i f =
  if tg = tg_int then string_of_int i
  else if tg = tg_float then Printf.sprintf "%g" f
  else if i <> 0 then "true"
  else "false"

(* cold raising helpers: callers check the tag inline so the hot path
   never passes a float across a function boundary *)
let bool_type_error tg i f = invalid_arg ("Value.to_bool: " ^ vstr tg i f)

let int_type_error tg i f = invalid_arg ("Value.to_int: " ^ vstr tg i f)

let truthy_type_error tg i f = invalid_arg ("Value.truthy: " ^ vstr tg i f)

let arith_error op = invalid_arg ("Interp: bad operands for " ^ op)

let icompare (x : int) y = if x < y then -1 else if x > y then 1 else 0

(* binop over slots [a] (result) and [b] of the scratch arrays;
   promotion rules and error strings are the semantics of §4's
   expression language.  Written as one flat match — no local closures,
   so the stepper's clause and expression evaluation allocates
   nothing here. *)
let exec (st_i : int array) (st_f : float array) (st_tg : int array) (op : Spec.binop) a b =
  let ti = st_tg.(a) and tj = st_tg.(b) in
  match op with
  | Spec.Add | Spec.Sub | Spec.Mul | Spec.Div | Spec.Rem | Spec.Min | Spec.Max ->
      if op = Spec.Rem then begin
        if ti = tg_int && tj = tg_int then begin
          if st_i.(b) = 0 then invalid_arg "Interp: modulo by zero"
          else begin
            st_i.(a) <- st_i.(a) mod st_i.(b);
            st_tg.(a) <- tg_int
          end
        end
        else arith_error "rem"
      end
      else if op = Spec.Div && tj = tg_int && st_i.(b) = 0 then
        invalid_arg "Interp: division by zero"
      else if op = Spec.Div && tj = tg_bool then arith_error "division"
      else if ti = tg_int && tj = tg_int then begin
        let x = st_i.(a) and y = st_i.(b) in
        st_i.(a) <-
          (match op with
          | Spec.Add -> x + y
          | Spec.Sub -> x - y
          | Spec.Mul -> x * y
          | Spec.Div -> x / y
          | Spec.Min -> if x <= y then x else y
          | _ -> if x >= y then x else y);
        st_tg.(a) <- tg_int
      end
      else if ti = tg_bool || tj = tg_bool then arith_error "arithmetic"
      else begin
        let x = if ti = tg_int then float_of_int st_i.(a) else st_f.(a) in
        let y = if tj = tg_int then float_of_int st_i.(b) else st_f.(b) in
        st_f.(a) <-
          (match op with
          | Spec.Add -> x +. y
          | Spec.Sub -> x -. y
          | Spec.Mul -> x *. y
          | Spec.Div -> x /. y
          | Spec.Min -> if x <= y then x else y
          | _ -> if x >= y then x else y);
        st_tg.(a) <- tg_float
      end
  | Spec.Eq | Spec.Ne | Spec.Lt | Spec.Le | Spec.Gt | Spec.Ge ->
      let c =
        if ti = tg_bool && tj = tg_bool then
          icompare (if st_i.(a) <> 0 then 1 else 0) (if st_i.(b) <> 0 then 1 else 0)
        else if ti = tg_bool || tj = tg_bool then arith_error "comparison"
        else if ti = tg_int && tj = tg_int then icompare st_i.(a) st_i.(b)
        else begin
          (* total-order float compare, inline: [compare] only on the
             NaN path so nothing is boxed in steady state *)
          let x = if ti = tg_int then float_of_int st_i.(a) else st_f.(a) in
          let y = if tj = tg_int then float_of_int st_i.(b) else st_f.(b) in
          if x < y then -1 else if x > y then 1 else if x = y then 0 else compare x y
        end
      in
      let v =
        match op with
        | Spec.Eq -> c = 0
        | Spec.Ne -> c <> 0
        | Spec.Lt -> c < 0
        | Spec.Le -> c <= 0
        | Spec.Gt -> c > 0
        | _ -> c >= 0
      in
      st_i.(a) <- (if v then 1 else 0);
      st_tg.(a) <- tg_bool
  | Spec.And ->
      if ti <> tg_bool then bool_type_error ti st_i.(a) st_f.(a);
      let v =
        st_i.(a) <> 0
        &&
        if tj <> tg_bool then bool_type_error tj st_i.(b) st_f.(b)
        else st_i.(b) <> 0
      in
      st_i.(a) <- (if v then 1 else 0);
      st_tg.(a) <- tg_bool
  | Spec.Or ->
      if ti <> tg_bool then bool_type_error ti st_i.(a) st_f.(a);
      let v =
        st_i.(a) <> 0
        ||
        if tj <> tg_bool then bool_type_error tj st_i.(b) st_f.(b)
        else st_i.(b) <> 0
      in
      st_i.(a) <- (if v then 1 else 0);
      st_tg.(a) <- tg_bool
