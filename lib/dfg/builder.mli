(** Imperative construction of data-flow graphs.

    Kernel definitions read like straight-line code:
    {[
      let b = Builder.create ~name:"sobel" in
      let p  = Builder.load b "img" ~offset:0 ~stride:1 in
      let q  = Builder.load b "img" ~offset:1 ~stride:1 in
      let d  = Builder.op2 b Op.Sub p q in
      let _  = Builder.store b "out" ~offset:0 ~stride:1 (Builder.op1 b Op.Abs d) in
      Builder.finish b
    ]} *)

type t

type v
(** Handle to a node under construction. *)

val create : name:string -> t

val add : t -> Op.t -> (v * int) list -> v
(** [add b op inputs] appends a node; [inputs] pairs each operand (in
    order) with its iteration distance.  Raises [Invalid_argument] when
    the input count does not match the op's arity. *)

val op0 : t -> Op.t -> v

val op1 : t -> Op.t -> v -> v

val op2 : t -> Op.t -> v -> v -> v

val const : t -> int -> v

val load : t -> string -> offset:int -> stride:int -> v

val store : t -> string -> offset:int -> stride:int -> v -> v

val carried : v -> int -> v * int
(** [carried v d] marks input [v] as coming from [d] iterations back. *)

val defer : t -> Op.t -> v
(** [defer b op] appends a node whose inputs will be wired later with
    {!connect} — the mechanism for building recurrence cycles, where a
    node consumes a value produced by a later-defined node in a previous
    iteration. *)

val connect : t -> src:v -> dst:v -> operand:int -> distance:int -> unit
(** Wires one operand of a deferred node.  Validation of completeness
    happens in {!finish}. *)

val finish : t -> Graph.t
(** Validates and freezes the graph. *)
