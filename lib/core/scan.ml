(* Range collection and folds, written once over a store's iterator
   operations. The iterator is closed even when a step raises — a
   corrupt table surfacing mid-scan re-raises [Table_file.Corruption] —
   so the scan's component pins and its own snapshot never outlive it. *)

module type ITER = sig
  type store
  type snapshot
  type iterator

  val iterator : ?snapshot:snapshot -> store -> iterator
  val iter_seek_first : iterator -> unit
  val iter_seek : iterator -> string -> unit
  val iter_valid : iterator -> bool
  val iter_key : iterator -> string
  val iter_value : iterator -> string
  val iter_next : iterator -> unit
  val iter_close : iterator -> unit
end

module Make (I : ITER) : sig
  val range :
    ?snapshot:I.snapshot ->
    ?start:string ->
    ?stop:string ->
    ?limit:int ->
    I.store ->
    (string * string) list

  val fold :
    ?snapshot:I.snapshot ->
    (string -> string -> 'acc -> 'acc) ->
    I.store ->
    'acc ->
    'acc
end = struct
  let with_iterator ?snapshot t f =
    let it = I.iterator ?snapshot t in
    Fun.protect ~finally:(fun () -> I.iter_close it) (fun () -> f it)

  let range ?snapshot ?start ?stop ?(limit = max_int) t =
    with_iterator ?snapshot t (fun it ->
        (match start with
        | Some s -> I.iter_seek it s
        | None -> I.iter_seek_first it);
        let rec collect n acc =
          if n >= limit || not (I.iter_valid it) then List.rev acc
          else
            let k = I.iter_key it in
            match stop with
            | Some e when k >= e -> List.rev acc
            | Some _ | None ->
                let v = I.iter_value it in
                I.iter_next it;
                collect (n + 1) ((k, v) :: acc)
        in
        collect 0 [])

  let fold ?snapshot f t acc =
    with_iterator ?snapshot t (fun it ->
        I.iter_seek_first it;
        let rec go acc =
          if I.iter_valid it then begin
            let k = I.iter_key it and v = I.iter_value it in
            I.iter_next it;
            go (f k v acc)
          end
          else acc
        in
        go acc)
end
