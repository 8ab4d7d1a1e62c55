(* A module that is nothing but a functor instance: calls to
   Include_instance.f must resolve to Include_functor's f. *)

include Include_functor.Make (struct end)
