(* Monotonic ns clock and exact percentiles over raw samples.

   Each client owns one preallocated buffer of (latency, op) samples; the
   Bigarray is not initialised, so only the pages a run fills are touched
   and the buffer's capacity does not show in the RSS. *)

open Bigarray

let now () = Int64.to_int (Monotonic_clock.now ())

type t = { buf : (int, int_elt, c_layout) Array1.t; mutable n : int }

let create capacity = { buf = Array1.create int c_layout capacity; n = 0 }
let full t = t.n >= Array1.dim t.buf
let count t = t.n

let add t ~op ns =
  if t.n < Array1.dim t.buf then begin
    Array1.unsafe_set t.buf t.n ((ns lsl 3) lor op);
    t.n <- t.n + 1
  end

(* Sorted latencies (ns) of the samples whose op satisfies [keep], over
   every buffer. *)
let sorted ?(keep = fun _ -> true) ts =
  let n =
    List.fold_left
      (fun acc t ->
        let c = ref acc in
        for i = 0 to t.n - 1 do
          if keep (Array1.unsafe_get t.buf i land 7) then incr c
        done;
        !c)
      0 ts
  in
  let a = Array.make n 0 in
  let j = ref 0 in
  List.iter
    (fun t ->
      for i = 0 to t.n - 1 do
        let s = Array1.unsafe_get t.buf i in
        if keep (s land 7) then begin
          a.(!j) <- s lsr 3;
          incr j
        end
      done)
    ts;
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array; [p] in (0, 1]. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
