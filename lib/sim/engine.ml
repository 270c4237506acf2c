(* Discrete-event simulation engine.

   The engine owns a virtual clock and a priority queue of pending events.
   Events scheduled for the same instant fire in scheduling order (ties are
   broken by a monotonically increasing sequence number), which keeps runs
   deterministic. Callbacks may schedule further events.

   The queue is an index heap over event slots. Slot [s] holds one event
   in parallel arrays: [times.(s)] (a flat unboxed float array),
   [seqs.(s)] and [cbs.(s)]. [heap] is a permutation of the slots
   [0 .. slots-1]: positions [0 .. size-1] form a binary min-heap ordered
   by (time, seq), and positions [size .. slots-1] are the free list of
   slots whose events already fired. Popping the minimum moves its slot
   from the heap's end into the free tail; scheduling takes the slot at
   [heap.(size)] and grows every array only when no slot is free. The
   dispatch loop moves integers only — no event records, no options —
   which matters because every layer of the simulator (networks, miners,
   protocols, chaos fault plans) funnels through it. test/test_fast.ml
   diffs this engine event by event against the boxed-heap reference.

   Heap and free-list entries are valid slots by construction, so the hot
   paths use unsafe accessors. *)

let noop () = ()

type t = {
  mutable now : float;
  mutable next_seq : int;
  mutable executed : int;
  mutable times : float array;
  mutable seqs : int array;
  mutable cbs : (unit -> unit) array;
  mutable heap : int array;
  mutable size : int; (* queued events: heap.(0 .. size-1) *)
  mutable slots : int; (* slots ever used: heap.(0 .. slots-1) *)
}

let create () =
  let n = 16 in
  {
    now = 0.0;
    next_seq = 0;
    executed = 0;
    times = Array.make n 0.0;
    seqs = Array.make n 0;
    cbs = Array.make n noop;
    heap = Array.make n 0;
    size = 0;
    slots = 0;
  }

let now t = t.now

let executed_events t = t.executed

let pending_events t = t.size

(* (time, seq) lexicographic order between slots. Float.compare keeps
   the order total even for NaN timestamps. *)
let less t a b =
  let c = Float.compare (Array.unsafe_get t.times a) (Array.unsafe_get t.times b) in
  if c <> 0 then c < 0 else Array.unsafe_get t.seqs a < Array.unsafe_get t.seqs b

let swap heap i j =
  let x = Array.unsafe_get heap i in
  Array.unsafe_set heap i (Array.unsafe_get heap j);
  Array.unsafe_set heap j x

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t (Array.unsafe_get t.heap i) (Array.unsafe_get t.heap parent) then begin
      swap t.heap i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && less t (Array.unsafe_get t.heap l) (Array.unsafe_get t.heap !smallest) then
    smallest := l;
  if r < t.size && less t (Array.unsafe_get t.heap r) (Array.unsafe_get t.heap !smallest) then
    smallest := r;
  if !smallest <> i then begin
    swap t.heap i !smallest;
    sift_down t !smallest
  end

let grow t =
  let n = Array.length t.times in
  let extend a fill =
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  in
  t.times <- extend t.times 0.0;
  t.seqs <- extend t.seqs 0;
  t.cbs <- extend t.cbs noop;
  t.heap <- extend t.heap 0

let schedule_at t ~time callback =
  if time < t.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %.6f is in the past (now %.6f)" time t.now);
  if t.size = t.slots then begin
    (* No free slot: open a fresh one at the end of the free tail. *)
    if t.slots = Array.length t.times then grow t;
    t.heap.(t.slots) <- t.slots;
    t.slots <- t.slots + 1
  end;
  let s = t.heap.(t.size) in
  t.times.(s) <- time;
  t.seqs.(s) <- t.next_seq;
  t.cbs.(s) <- callback;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let schedule t ~delay callback =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.now +. delay) callback

(* Run until the queue drains, the horizon is reached or [stop] returns
   true. Returns the number of events executed during this call. *)
let run ?(until = infinity) ?stop t =
  let should_stop () = match stop with None -> false | Some f -> f () in
  let count = ref 0 in
  while
    (not (should_stop ()))
    && t.size > 0
    && not (Array.unsafe_get t.times (Array.unsafe_get t.heap 0) > until)
  do
    let s = Array.unsafe_get t.heap 0 in
    let last = t.size - 1 in
    t.size <- last;
    (* The last heap entry fills the root; the popped slot joins the
       free tail in its place. *)
    Array.unsafe_set t.heap 0 (Array.unsafe_get t.heap last);
    Array.unsafe_set t.heap last s;
    sift_down t 0;
    let cb = Array.unsafe_get t.cbs s in
    Array.unsafe_set t.cbs s noop;
    t.now <- Array.unsafe_get t.times s;
    incr count;
    t.executed <- t.executed + 1;
    cb ()
  done;
  (* Advance the clock to the horizon if the queue drained early (but not
     when the stop condition ended the run), so that back-to-back
     [run ~until] calls observe monotone time. *)
  if (not (should_stop ())) && until < infinity && t.now < until then t.now <- until;
  !count

let run_until t horizon = ignore (run ~until:horizon t)

(* Repeating event: reschedules itself every [every] until the returned
   stop thunk is called or [while_] turns false. *)
let schedule_repeating ?while_ t ~first ~every callback =
  let live = ref true in
  let keep_going () = !live && (match while_ with None -> true | Some f -> f ()) in
  let rec arm delay =
    schedule t ~delay (fun () ->
        if keep_going () then begin
          callback ();
          if keep_going () then arm every
        end)
  in
  arm first;
  fun () -> live := false
