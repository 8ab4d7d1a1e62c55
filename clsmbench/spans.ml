(* In-memory span recorder for the traced run.

   One buffer per client, so recording needs no synchronisation. A span is
   (name, start ns, end ns, parent span, request id); a request's root span
   covers the whole client operation and its children are the Db calls it
   made. Spans are written out after the run. *)

open Bigarray

let fields = 5

type t = { buf : (int, int_elt, c_layout) Array1.t; mutable n : int }

let create capacity =
  { buf = Array1.create int c_layout (capacity * fields); n = 0 }

let capacity t = Array1.dim t.buf / fields

(* Open a span now; returns its id, or -1 when the buffer is full. *)
let start t ~name ~parent ~req =
  if t.n >= capacity t then -1
  else begin
    let id = t.n in
    let o = id * fields in
    t.buf.{o} <- name;
    t.buf.{o + 1} <- Samples.now ();
    t.buf.{o + 2} <- -1;
    t.buf.{o + 3} <- parent;
    t.buf.{o + 4} <- req;
    t.n <- id + 1;
    id
  end

let stop t id = if id >= 0 then t.buf.{(id * fields) + 2} <- Samples.now ()

let name_of t i = t.buf.{i * fields}
let start_ns t i = t.buf.{(i * fields) + 1}
let stop_ns t i = t.buf.{(i * fields) + 2}
let parent t i = t.buf.{(i * fields) + 3}
let req t i = t.buf.{(i * fields) + 4}
let duration t i = stop_ns t i - start_ns t i

(* Self time of every span: its duration minus the part of its interval
   that its children cover (overlapping children are counted once). *)
let self_times t =
  let covered = Array.make t.n 0 in
  let covered_to = Array.init t.n (fun i -> start_ns t i) in
  for i = 0 to t.n - 1 do
    let p = parent t i in
    if p >= 0 && stop_ns t i >= 0 then begin
      let s = max (start_ns t i) covered_to.(p) in
      let e = min (stop_ns t i) (stop_ns t p) in
      if e > s then begin
        covered.(p) <- covered.(p) + (e - s);
        covered_to.(p) <- e
      end
    end
  done;
  Array.init t.n (fun i -> duration t i - covered.(i))

(* Median duration (ns) of the closed spans called [name], across
   buffers; 0 when there are none. *)
let median_duration ts name =
  let ds = ref [] in
  List.iter
    (fun t ->
      for i = 0 to t.n - 1 do
        if name_of t i = name && stop_ns t i >= 0 then ds := duration t i :: !ds
      done)
    ts;
  let a = Array.of_list !ds in
  Array.sort compare a;
  Samples.percentile a 0.5

(* Self time of the root spans ÷ their duration: the share of client time
   spent outside the Db calls. *)
let root_self_share ts =
  let total = ref 0 and self = ref 0 in
  List.iter
    (fun t ->
      let st = self_times t in
      for i = 0 to t.n - 1 do
        if parent t i < 0 && stop_ns t i >= 0 then begin
          total := !total + duration t i;
          self := !self + st.(i)
        end
      done)
    ts;
  float_of_int !self /. float_of_int (max 1 !total)

(* One line per span: name, start, end, parent, request id. *)
let write_tsv ~names path ts =
  let oc = open_out path in
  output_string oc "name\tstart_ns\tend_ns\tparent\treq\n";
  List.iteri
    (fun c t ->
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%s\t%d\t%d\t%s\t%d\n" names.(name_of t i) (start_ns t i)
          (stop_ns t i)
          (if parent t i < 0 then "-" else Printf.sprintf "%d:%d" c (parent t i))
          (req t i)
      done)
    ts;
  close_out oc
