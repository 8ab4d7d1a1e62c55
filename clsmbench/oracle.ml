(* Self-describing values and the checks the benchmark applies to every
   answer the store returns.

   A value is "<key>|<client>|<seq>|<counter>|" padded to the workload's
   value length. [client] is the writing client's id, or [preload] for the
   set-up load; [seq] is that client's write sequence number; [counter] is
   the RMW counter (0 outside scan_rmw). So a get can check the value
   belongs to its own key, the final state can be matched against each
   client's last write, and the counters sum to the number of RMWs that
   took effect. *)

let preload = -1

let pad = String.init 4096 (fun i -> Char.chr (97 + (i * 7919 mod 26)))

let encode ~value_len ~key ~client ~seq ~counter =
  let header = Printf.sprintf "%s|%d|%d|%d|" key client seq counter in
  let h = String.length header in
  if h > value_len then invalid_arg "Oracle.encode: value too short";
  let b = Bytes.create value_len in
  Bytes.blit_string header 0 b 0 h;
  Bytes.blit_string pad 0 b h (value_len - h);
  Bytes.unsafe_to_string b

type decoded = { key : string; client : int; seq : int; counter : int }

let decode v =
  let ( let* ) = Option.bind in
  let field from =
    let* i = String.index_from_opt v from '|' in
    Some (String.sub v from (i - from), i + 1)
  in
  let int_field from =
    let* s, next = field from in
    let* n = int_of_string_opt s in
    Some (n, next)
  in
  let* key, p = field 0 in
  let* client, p = int_field p in
  let* seq, p = int_field p in
  let* counter, _ = int_field p in
  Some { key; client; seq; counter }

let value_of_key ~key v =
  match decode v with Some d when String.equal d.key key -> Some d | _ -> None

(* Every key of the key space is preloaded and nothing is deleted, so a
   get must find a value, and it must be one written for its key. *)
let get_ok ~key = function
  | Some v -> Option.is_some (value_of_key ~key v)
  | None -> false

(* [key_index key] is the key's index in the key space, [None] if the key
   is not one of the space's keys. *)
let scan_ok ~key_index ~start ~limit rows =
  let rec ascending prev = function
    | [] -> true
    | (k, v) :: rest ->
        String.compare k prev > 0
        && Option.is_some (key_index k)
        && Option.is_some (value_of_key ~key:k v)
        && ascending k rest
  in
  List.length rows = limit
  &&
  match rows with
  | [] -> true
  | (k, v) :: rest ->
      String.compare k start >= 0
      && Option.is_some (key_index k)
      && Option.is_some (value_of_key ~key:k v)
      && ascending k rest

(* [last.(c).(i)] is client [c]'s last sequence number written to key [i],
   -1 if it never wrote the key. Clients race, so either client's last
   write may win; a key no client wrote keeps its preload value. *)
let final_ok ~last ~index ~key value =
  match Option.bind value (value_of_key ~key) with
  | None -> false
  | Some d ->
      if d.client = preload then Array.for_all (fun l -> l.(index) < 0) last
      else
        d.client >= 0
        && d.client < Array.length last
        && last.(d.client).(index) = d.seq

(* Algorithm 3: no lost update. *)
let counters_ok ~sum ~rmws = sum = rmws
