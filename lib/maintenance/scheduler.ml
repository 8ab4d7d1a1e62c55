open Clsm_primitives

let src = Logs.Src.create "clsm.maintenance" ~doc:"cLSM maintenance scheduler"

module Log = (val Logs.src_log src : Logs.LOG)

(* The worker domains of one start/stop cycle. A retired crew's workers
   see [stopping] and exit after their current job. *)
type crew = { stopping : bool Atomic.t; domains : unit Domain.t list }

type t = {
  num_workers : int;
  tick_interval : float;
  wakeup : Wakeup.t;
  registry : Mutex.t;
      (* guards every source's [registered]/[inflight] transition and
         the writes of [sources] *)
  drained : Condition.t; (* an unregistered source's last job returned *)
  sources : source array Atomic.t; (* registered sources, replaced whole *)
  rr : int Atomic.t; (* round-robin cursor over [sources] *)
  lifecycle : Mutex.t; (* serializes crew start/retire *)
  mutable crew : crew option;
  jobs : int Atomic.t;
}

and source = {
  pool : t;
  next : unit -> Job.t option;
  run : Job.t -> unit;
  registered : bool Atomic.t;
  mutable inflight : int; (* workers inside [next]/[run], under [registry] *)
}

let create ?(num_workers = 2) ?(tick_interval = 0.25) () =
  if num_workers < 0 then invalid_arg "Scheduler.create: num_workers < 0";
  {
    num_workers;
    tick_interval;
    wakeup = Wakeup.create ();
    registry = Mutex.create ();
    drained = Condition.create ();
    sources = Atomic.make [||];
    rr = Atomic.make 0;
    lifecycle = Mutex.create ();
    crew = None;
    jobs = Atomic.make 0;
  }

let shared = create ()

(* A worker holds a source between [enter] and [leave] for the whole
   claim/run; [unregister] clears [registered] first and then waits for
   [inflight] to drain, so once it returns no worker is inside the
   source and none will enter it again. *)
let enter s =
  Mutex.protect s.pool.registry (fun () ->
      Atomic.get s.registered
      && begin
           s.inflight <- s.inflight + 1;
           true
         end)

let leave s =
  Mutex.protect s.pool.registry (fun () ->
      s.inflight <- s.inflight - 1;
      if s.inflight = 0 && not (Atomic.get s.registered) then
        Condition.broadcast s.pool.drained)

(* Probe each source once, starting from a rotating cursor, and return
   the first claimed job with its source still entered. *)
let claim t id =
  let sources = Atomic.get t.sources in
  let n = Array.length sources in
  let start = Atomic.fetch_and_add t.rr 1 land max_int in
  let rec probe i =
    if i >= n then None
    else
      let s = sources.((start + i) mod n) in
      if not (enter s) then probe (i + 1)
      else
        match
          try s.next ()
          with e ->
            Log.err (fun m ->
                m "worker %d: next raised %s" id (Printexc.to_string e));
            None
        with
        | Some job -> Some (s, job)
        | None ->
            leave s;
            probe (i + 1)
  in
  probe 0

(* The fallback clock. Sleeps in small slices so retiring the crew never
   waits a full (possibly long) tick to join worker 0. *)
let ticker_loop t stopping =
  let stopping () = Atomic.get stopping in
  let rec nap left =
    if left > 0. && not (stopping ()) then begin
      Unix.sleepf (Float.min 0.05 left);
      nap (left -. 0.05)
    end
  in
  while not (stopping ()) do
    nap t.tick_interval;
    if not (stopping ()) then Wakeup.signal t.wakeup
  done

let worker_loop t stopping id =
  let ticker =
    if id = 0 then Some (Thread.create (ticker_loop t) stopping) else None
  in
  let rec go seen =
    if not (Atomic.get stopping) then
      match claim t id with
      | Some (s, job) ->
          Atomic.incr t.jobs;
          (try s.run job
           with e ->
             Log.err (fun m ->
                 m "worker %d: %a raised %s" id Job.pp job (Printexc.to_string e)));
          leave s;
          go (Wakeup.current t.wakeup)
      | None -> go (Wakeup.wait t.wakeup ~seen)
  in
  go (Wakeup.current t.wakeup);
  Option.iter Thread.join ticker

let register t ~next ~run =
  let s =
    { pool = t; next; run; registered = Atomic.make true; inflight = 0 }
  in
  Mutex.protect t.lifecycle (fun () ->
      Mutex.protect t.registry (fun () ->
          Atomic.set t.sources (Array.append (Atomic.get t.sources) [| s |]));
      if Option.is_none t.crew && t.num_workers > 0 then begin
        let stopping = Atomic.make false in
        let spawn id = Domain.spawn (fun () -> worker_loop t stopping id) in
        t.crew <- Some { stopping; domains = List.init t.num_workers spawn }
      end;
      (* the new source may already have work (a recovered memtable over
         its budget) *)
      Wakeup.signal t.wakeup);
  s

(* Join the crew once no source is left. Registrations hold [lifecycle],
   so an empty [sources] read here cannot race one; an unregistration
   that empties it later runs this again itself. *)
let retire_if_idle t =
  Mutex.protect t.lifecycle (fun () ->
      match t.crew with
      | Some crew when Array.length (Atomic.get t.sources) = 0 ->
          t.crew <- None;
          Atomic.set crew.stopping true;
          Wakeup.signal t.wakeup;
          List.iter Domain.join crew.domains
      | _ -> ())

let unregister s =
  let t = s.pool in
  Mutex.protect t.registry (fun () ->
      if Atomic.exchange s.registered false then
        Atomic.set t.sources
          (Array.of_seq
             (Seq.filter (( != ) s) (Array.to_seq (Atomic.get t.sources))));
      while s.inflight > 0 do
        Condition.wait t.drained t.registry
      done);
  retire_if_idle t

let wake s = if Atomic.get s.registered then Wakeup.signal s.pool.wakeup
let jobs_run t = Atomic.get t.jobs

let running_workers t =
  Mutex.protect t.lifecycle (fun () ->
      match t.crew with Some c -> List.length c.domains | None -> 0)

(* Bounded fork-join for subtasks of one maintenance job (range-
   partitioned subcompactions): thunks beyond the first each get a fresh
   domain, the first runs on the calling worker domain so a fan-out of n
   costs n-1 spawns and the worker is never idle while its children
   run. Exceptions are captured per-thunk, never lost: the caller
   decides whether one failure aborts the whole job. *)
let fan_out thunks =
  let wrap f = try Ok (f ()) with e -> Error e in
  match thunks with
  | [] -> []
  | [ f ] -> [ wrap f ]
  | first :: rest ->
      let children =
        List.map (fun f -> Domain.spawn (fun () -> wrap f)) rest
      in
      let r0 = wrap first in
      r0 :: List.map Domain.join children
