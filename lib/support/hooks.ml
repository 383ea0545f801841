(** Keyed observer registry — see the interface. *)

(* An immutable assoc list behind an atomic: writers swap in a new list by
   compare-and-set, readers take whatever list is current without a lock. *)
type 'f t = (string * 'f) list Atomic.t

let create () = Atomic.make []

let rec update t f =
  let old = Atomic.get t in
  if not (Atomic.compare_and_set t old (f old)) then update t f

let add t ~key f = update t (fun l -> (key, f) :: List.remove_assoc key l)
let remove t key = update t (List.remove_assoc key)
let is_empty t = match Atomic.get t with [] -> true | _ :: _ -> false
let iter t g = List.iter (fun (_, f) -> g f) (Atomic.get t)
