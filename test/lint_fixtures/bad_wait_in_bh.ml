(* clic-lint fixture: R1 no-sleep-in-atomic, through a FIFO wait.

   A bottom half that parks itself on a wait queue with
   [Process.wait_in], the only blocking call here, so the linter flags
   this file only if that primitive is in its table.  This file is
   parsed, never compiled. *)

let park waiters = Process.wait_in waiters

let defer bh waiters = Bottom_half.schedule bh (fun () -> park waiters)
