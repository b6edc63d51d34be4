type terminal = Field of string | All
type t = { source_set : string; steps : string list; terminal : terminal }

let make ~source_set ~steps ~terminal =
  if source_set = "" then invalid_arg "Path.make: empty source set";
  if steps = [] then invalid_arg "Path.make: a replication path needs at least one reference step";
  List.iter (fun s -> if s = "" then invalid_arg "Path.make: empty step") steps;
  (match terminal with
  | Field "" -> invalid_arg "Path.make: empty terminal field"
  | Field _ | All -> ());
  { source_set; steps; terminal }

let level t = List.length t.steps

let parse s =
  match String.split_on_char '.' (String.trim s) with
  | source_set :: rest when List.length rest >= 2 ->
      let rec split_last acc = function
        | [] -> assert false
        | [ last ] -> (List.rev acc, last)
        | x :: tl -> split_last (x :: acc) tl
      in
      let steps, last = split_last [] rest in
      let terminal =
        if String.lowercase_ascii last = "all" then All else Field last
      in
      make ~source_set ~steps ~terminal
  | _ ->
      invalid_arg
        (Printf.sprintf "Path.parse: %S (want Set.attr...attr.field or Set.attr.all)" s)

let to_string t =
  let last = match t.terminal with Field f -> f | All -> "all" in
  String.concat "." ((t.source_set :: t.steps) @ [ last ])

let equal a b =
  a.source_set = b.source_set && a.steps = b.steps
  &&
  match (a.terminal, b.terminal) with
  | Field x, Field y -> x = y
  | All, All -> true
  | (Field _ | All), _ -> false

let prefix_length a b =
  if a.source_set <> b.source_set then 0
  else
    let rec go n xs ys =
      match (xs, ys) with
      | x :: xs, y :: ys when x = y -> go (n + 1) xs ys
      | _, _ -> n
    in
    go 0 a.steps b.steps
