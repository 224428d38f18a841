type v = int

type t = {
  name : string;
  mutable ops : Op.t list;  (* reversed *)
  mutable count : int;
  mutable edges : (int * int * int * int) list;
}

let create ~name = { name; ops = []; count = 0; edges = [] }

let add b op inputs =
  if List.length inputs <> Op.arity op then
    invalid_arg
      (Printf.sprintf "Builder.add: %s expects %d inputs, got %d" (Op.to_string op)
         (Op.arity op) (List.length inputs));
  let id = b.count in
  b.ops <- op :: b.ops;
  b.count <- id + 1;
  List.iteri
    (fun operand (src, distance) -> b.edges <- (src, id, operand, distance) :: b.edges)
    inputs;
  id

let op0 b op = add b op []

let op1 b op x = add b op [ (x, 0) ]

let op2 b op x y = add b op [ (x, 0); (y, 0) ]

let const b k = op0 b (Op.Const k)

let load b array ~offset ~stride = op0 b (Op.Load { array; offset; stride })

let store b array ~offset ~stride v = op1 b (Op.Store { array; offset; stride }) v

let carried v d = (v, d)

let defer b op =
  let id = b.count in
  b.ops <- op :: b.ops;
  b.count <- id + 1;
  id

let connect b ~src ~dst ~operand ~distance =
  b.edges <- (src, dst, operand, distance) :: b.edges

let finish b = Graph.create ~name:b.name ~ops:(List.rev b.ops) ~edges:(List.rev b.edges)
