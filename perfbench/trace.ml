(* Spans around the benchmark's own calls into the engine's layers.

   A span is (layer, start, end, cause, op id): the cause is the span that
   was open when it began, and every span of one benchmark operation shares
   that operation's id.  Spans live in preallocated arrays and are written
   out once, after the run.  With tracing off, [enter] reads no clock and
   records nothing, so an untraced run pays one branch per call site. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type layer = Op | Db | Exec | Repl

let layers = [ Op; Db; Exec; Repl ]

let layer_name = function
  | Op -> "op"
  | Db -> "db"
  | Exec -> "exec"
  | Repl -> "repl"

let layer_index = function Op -> 0 | Db -> 1 | Exec -> 2 | Repl -> 3

type t = {
  on : bool;
  cap : int;
  mutable n : int;
  mutable dropped : int;
  mutable cur : int;  (* innermost open span, -1 at top level *)
  mutable op_id : int;
  layer : int array;
  start : int array;
  stop : int array;
  cause : int array;
  op : int array;
}

let create ~on ~cap =
  let cap = if on then cap else 0 in
  {
    on;
    cap;
    n = 0;
    dropped = 0;
    cur = -1;
    op_id = 0;
    layer = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    cause = Array.make cap (-1);
    op = Array.make cap 0;
  }

let off = create ~on:false ~cap:0

(* Returns the span's index, or -1 when tracing is off or full; pass it to
   [leave] either way. *)
let enter t l =
  if not t.on then -1
  else if t.n >= t.cap then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    let i = t.n in
    t.n <- i + 1;
    if l = Op then t.op_id <- t.op_id + 1;
    t.layer.(i) <- layer_index l;
    t.cause.(i) <- t.cur;
    t.op.(i) <- t.op_id;
    t.cur <- i;
    t.start.(i) <- now ();
    i
  end

let leave t i =
  if i >= 0 then begin
    t.stop.(i) <- now ();
    t.cur <- t.cause.(i)
  end

(* Self time per layer: each span's duration minus the part its child
   spans cover (children nest strictly inside their cause). *)
let self_ns t =
  let self = Array.make (List.length layers) 0 in
  for i = 0 to t.n - 1 do
    let d = t.stop.(i) - t.start.(i) in
    self.(t.layer.(i)) <- self.(t.layer.(i)) + d;
    let c = t.cause.(i) in
    if c >= 0 then self.(t.layer.(c)) <- self.(t.layer.(c)) - d
  done;
  List.map (fun l -> (l, self.(layer_index l))) layers

let write t path =
  let oc = open_out path in
  output_string oc "span,layer,start_ns,end_ns,cause,op\n";
  let names = Array.of_list (List.map layer_name layers) in
  for i = 0 to t.n - 1 do
    let l = names.(t.layer.(i)) and s = t.start.(i) and e = t.stop.(i) in
    Printf.fprintf oc "%d,%s,%d,%d,%d,%d\n" i l s e t.cause.(i) t.op.(i)
  done;
  close_out oc
