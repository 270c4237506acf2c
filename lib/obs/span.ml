(* Span recorder: a forest of timed intervals in creation order.

   Children are stored newest-first and reversed at read-out, keeping
   [enter] O(1). The open-span stack only serves implicit parenting of
   live spans; derived spans ([add], [of_trace]) bypass it entirely. *)

module Json = Ac3_crypto.Codec.Json
module Trace = Ac3_sim.Trace

type span = {
  name : string;
  attrs : (string * string) list;
  start : float;
  mutable stop : float option;
  mutable children_rev : span list;
}

type t = {
  clock : unit -> float;
  on : bool;
  mutable roots_rev : span list;
  mutable stack : span list; (* innermost open span first *)
}

let create ?(enabled = true) ~clock () = { clock; on = enabled; roots_rev = []; stack = [] }

let is_enabled t = t.on

let dummy = { name = ""; attrs = []; start = 0.0; stop = Some 0.0; children_rev = [] }

let attach t parent span =
  match parent with
  | Some p -> p.children_rev <- span :: p.children_rev
  | None -> (
      match t.stack with
      | top :: _ -> top.children_rev <- span :: top.children_rev
      | [] -> t.roots_rev <- span :: t.roots_rev)

let enter t ?parent ?(attrs = []) name =
  if not t.on then dummy
  else begin
    let span = { name; attrs; start = t.clock (); stop = None; children_rev = [] } in
    attach t parent span;
    t.stack <- span :: t.stack;
    span
  end

let exit t span =
  if t.on && span != dummy && span.stop = None then begin
    let now = t.clock () in
    span.stop <- Some now;
    (* Unwind the open stack through [span]: anything opened inside it
       and forgotten is closed at the same instant. *)
    let rec unwind = function
      | s :: rest when s == span -> t.stack <- rest
      | s :: rest ->
          if s.stop = None then s.stop <- Some now;
          unwind rest
      | [] -> () (* not on the stack (explicit parent): nothing to pop *)
    in
    if List.memq span t.stack then unwind t.stack
  end

let with_span t ?attrs name f =
  let span = enter t ?attrs name in
  Fun.protect ~finally:(fun () -> exit t span) f

let add t ?parent ?(attrs = []) ~name ~start ~stop () =
  if not t.on then dummy
  else begin
    let span = { name; attrs; start; stop = Some stop; children_rev = [] } in
    (match parent with
    | Some p -> p.children_rev <- span :: p.children_rev
    | None -> t.roots_rev <- span :: t.roots_rev);
    span
  end

(* --- Phase derivation from traces ------------------------------------- *)

type phase = { phase : string; opens : string; closes : string list }

let windows ~phases trace =
  let records = Trace.records trace in
  let first_with prefix =
    List.find_opt (fun (r : Trace.record) -> String.starts_with ~prefix r.Trace.label) records
  in
  let last_with prefixes =
    List.fold_left
      (fun acc (r : Trace.record) ->
        if List.exists (fun prefix -> String.starts_with ~prefix r.Trace.label) prefixes then
          Some r
        else acc)
      None records
  in
  List.filter_map
    (fun { phase; opens; closes } ->
      match (first_with opens, last_with closes) with
      | Some a, Some b when b.Trace.time >= a.Trace.time -> Some (phase, a.Trace.time, b.Trace.time)
      | _ -> None)
    phases

let of_trace t ?parent ~phases trace =
  if t.on then
    List.iter
      (fun (name, start, stop) -> ignore (add t ?parent ~name ~start ~stop ()))
      (windows ~phases trace)

(* --- Read-out ---------------------------------------------------------- *)

let roots t = List.rev t.roots_rev

let import ~into src = if into.on then into.roots_rev <- List.rev_append (roots src) into.roots_rev

let span_name s = s.name

let duration s = Option.map (fun stop -> stop -. s.start) s.stop

let rec span_json s =
  Json.Obj
    [
      ("name", Json.String s.name);
      ("start", Json.Float s.start);
      ("end", match s.stop with Some e -> Json.Float e | None -> Json.Null);
      ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) s.attrs));
      ("children", Json.List (List.rev_map span_json s.children_rev));
    ]

let to_json t = Json.Obj [ ("spans", Json.List (List.map span_json (roots t))) ]

let pp ppf t =
  let rec go indent s =
    Fmt.pf ppf "%s%-*s %10.3f .. %s%s@." indent
      (max 1 (32 - String.length indent))
      s.name s.start
      (match s.stop with Some e -> Fmt.str "%10.3f" e | None -> "     open ")
      (match s.attrs with
      | [] -> ""
      | attrs -> "  " ^ String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) attrs));
    List.iter (go (indent ^ "  ")) (List.rev s.children_rev)
  in
  List.iter (go "") (roots t)
