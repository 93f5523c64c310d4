(* Outputs of [Pin_cases] computed with the decimal state key and the
   per-step blame counting that the binary key and [Execution.iter_starved]
   replaced. Each entry is (label, printed output). *)

let throughput =
  [
    ("mjpeg-dse fsl/1",
     "throughput 1/77765 it/cycle (transient 0, period 77765 cycles / 1 it)");
    ("mjpeg-dse fsl/2",
     "throughput 1/43814 it/cycle (transient 42801, period 43814 cycles / 1 it)");
    ("mjpeg-dse fsl/3",
     "throughput 1/43249 it/cycle (transient 38821, period 43249 cycles / 1 it)");
    ("mjpeg-dse fsl/4",
     "throughput 1/43249 it/cycle (transient 38821, period 43249 cycles / 1 it)");
    ("mjpeg-dse fsl/5",
     "throughput 1/43249 it/cycle (transient 38821, period 43249 cycles / 1 it)");
    ("mjpeg-dse noc/1",
     "throughput 1/77765 it/cycle (transient 0, period 77765 cycles / 1 it)");
    ("mjpeg-dse noc/2",
     "throughput 1/43814 it/cycle (transient 42805, period 43814 cycles / 1 it)");
    ("mjpeg-dse noc/3",
     "throughput 1/43249 it/cycle (transient 38821, period 43249 cycles / 1 it)");
    ("mjpeg-dse noc/4",
     "throughput 1/43249 it/cycle (transient 38821, period 43249 cycles / 1 it)");
    ("mjpeg-dse noc/5",
     "throughput 1/43249 it/cycle (transient 38821, period 43249 cycles / 1 it)");
    ("synth 1 fsl",
     "throughput 1/748 it/cycle (transient 7275, period 748 cycles / 1 it)");
    ("synth 1 noc",
     "throughput 1/1229 it/cycle (transient 367, period 1229 cycles / 1 it)");
    ("synth 2 fsl",
     "throughput 1/402 it/cycle (transient 0, period 402 cycles / 1 it)");
    ("synth 2 noc",
     "throughput 1/402 it/cycle (transient 0, period 402 cycles / 1 it)");
    ("synth 3 fsl",
     "throughput 1/624 it/cycle (transient 507, period 624 cycles / 1 it)");
    ("synth 3 noc",
     "throughput 1/624 it/cycle (transient 511, period 624 cycles / 1 it)");
    ("synth 4 fsl",
     "throughput 1/1235 it/cycle (transient 397, period 1235 cycles / 1 it)");
    ("synth 4 noc",
     "throughput 1/1243 it/cycle (transient 397, period 1243 cycles / 1 it)");
    ("synth 5 fsl",
     "throughput 1/966 it/cycle (transient 851, period 966 cycles / 1 it)");
    ("synth 5 noc",
     "throughput 1/966 it/cycle (transient 855, period 966 cycles / 1 it)");
    ("synth 6 fsl",
     "throughput 1/359 it/cycle (transient 242, period 359 cycles / 1 it)");
    ("synth 6 noc",
     "throughput 1/359 it/cycle (transient 242, period 359 cycles / 1 it)");
    ("synth 7 fsl",
     "throughput 1/1600 it/cycle (transient 790, period 1600 cycles / 1 it)");
    ("synth 7 noc",
     "throughput 1/1570 it/cycle (transient 621, period 1570 cycles / 1 it)");
    ("synth 8 fsl",
     "throughput 1/362 it/cycle (transient 0, period 362 cycles / 1 it)");
    ("synth 8 noc",
     "throughput 1/362 it/cycle (transient 0, period 362 cycles / 1 it)");
    ("synth 9 fsl",
     "throughput 1/953 it/cycle (transient 2050, period 953 cycles / 1 it)");
    ("synth 9 noc",
     "throughput 1/953 it/cycle (transient 2056, period 953 cycles / 1 it)");
    ("synth 10 fsl",
     "throughput 1/296 it/cycle (transient 4065, period 296 cycles / 1 it)");
    ("synth 10 noc",
     "throughput 1/296 it/cycle (transient 4069, period 296 cycles / 1 it)");
    ("synth 11 fsl",
     "throughput 1/576 it/cycle (transient 4956, period 576 cycles / 1 it)");
    ("synth 11 noc",
     "throughput 1/576 it/cycle (transient 4960, period 576 cycles / 1 it)");
    ("synth 12 fsl",
     "throughput 1/1477 it/cycle (transient 850, period 1477 cycles / 1 it)");
    ("synth 12 noc",
     "throughput 1/1485 it/cycle (transient 852, period 1485 cycles / 1 it)");
    ("synth 13 fsl",
     "throughput 1/1113 it/cycle (transient 95, period 1113 cycles / 1 it)");
    ("synth 13 noc",
     "throughput 1/1121 it/cycle (transient 99, period 1121 cycles / 1 it)");
    ("synth 14 fsl",
     "throughput 1/1202 it/cycle (transient 316, period 1202 cycles / 1 it)");
    ("synth 14 noc",
     "throughput 1/1218 it/cycle (transient 320, period 1218 cycles / 1 it)");
    ("synth 15 fsl",
     "throughput 1/593 it/cycle (transient 0, period 593 cycles / 1 it)");
    ("synth 15 noc",
     "throughput 1/593 it/cycle (transient 0, period 593 cycles / 1 it)");
    ("synth 16 fsl",
     "throughput 1/580 it/cycle (transient 5856, period 580 cycles / 1 it)");
    ("synth 16 noc",
     "throughput 1/580 it/cycle (transient 5860, period 580 cycles / 1 it)");
    ("synth 17 fsl",
     "throughput 1/1453 it/cycle (transient 0, period 1453 cycles / 1 it)");
    ("synth 17 noc",
     "throughput 1/1461 it/cycle (transient 0, period 1461 cycles / 1 it)");
    ("synth 18 fsl",
     "throughput 1/253 it/cycle (transient 0, period 253 cycles / 1 it)");
    ("synth 18 noc",
     "throughput 1/253 it/cycle (transient 0, period 253 cycles / 1 it)");
    ("synth 19 fsl",
     "throughput 1/456 it/cycle (transient 2426, period 456 cycles / 1 it)");
    ("synth 19 noc",
     "throughput 1/456 it/cycle (transient 2430, period 456 cycles / 1 it)");
    ("synth 20 fsl",
     "throughput 1/1609 it/cycle (transient 0, period 1609 cycles / 1 it)");
    ("synth 20 noc",
     "throughput 1/1617 it/cycle (transient 0, period 1617 cycles / 1 it)");
    ("synth 21 fsl",
     "throughput 1/1145 it/cycle (transient 0, period 1145 cycles / 1 it)");
    ("synth 21 noc",
     "throughput 1/1153 it/cycle (transient 0, period 1153 cycles / 1 it)");
    ("synth 22 fsl",
     "throughput 1/691 it/cycle (transient 2003, period 691 cycles / 1 it)");
    ("synth 22 noc",
     "throughput 1/1085 it/cycle (transient 0, period 1085 cycles / 1 it)");
    ("synth 23 fsl",
     "throughput 1/582 it/cycle (transient 4245, period 582 cycles / 1 it)");
    ("synth 23 noc",
     "throughput 1/582 it/cycle (transient 4243, period 582 cycles / 1 it)");
    ("synth 24 fsl",
     "throughput 1/1289 it/cycle (transient 0, period 1289 cycles / 1 it)");
    ("synth 24 noc",
     "throughput 1/1297 it/cycle (transient 0, period 1297 cycles / 1 it)");
    ("synth 25 fsl",
     "throughput 1/717 it/cycle (transient 358, period 717 cycles / 1 it)");
    ("synth 25 noc",
     "throughput 1/1036 it/cycle (transient 328, period 1036 cycles / 1 it)");
    ("synth 26 fsl",
     "throughput 1/776 it/cycle (transient 345, period 776 cycles / 1 it)");
    ("synth 26 noc",
     "throughput 1/776 it/cycle (transient 353, period 776 cycles / 1 it)");
    ("synth 27 fsl",
     "throughput 1/884 it/cycle (transient 24, period 884 cycles / 1 it)");
    ("synth 27 noc",
     "throughput 1/892 it/cycle (transient 24, period 892 cycles / 1 it)");
    ("synth 28 fsl",
     "throughput 1/742 it/cycle (transient 0, period 742 cycles / 1 it)");
    ("synth 28 noc",
     "throughput 1/742 it/cycle (transient 0, period 742 cycles / 1 it)");
    ("synth 29 fsl",
     "throughput 1/212 it/cycle (transient 0, period 212 cycles / 1 it)");
    ("synth 29 noc",
     "throughput 1/212 it/cycle (transient 0, period 212 cycles / 1 it)");
    ("synth 30 fsl",
     "throughput 1/352 it/cycle (transient 0, period 352 cycles / 1 it)");
    ("synth 30 noc",
     "throughput 1/352 it/cycle (transient 0, period 352 cycles / 1 it)");
    ("synth 31 fsl",
     "throughput 1/456 it/cycle (transient 156, period 456 cycles / 1 it)");
    ("synth 31 noc",
     "throughput 1/456 it/cycle (transient 156, period 456 cycles / 1 it)");
    ("synth 32 fsl",
     "throughput 1/708 it/cycle (transient 123, period 708 cycles / 1 it)");
    ("synth 32 noc",
     "throughput 1/708 it/cycle (transient 153, period 708 cycles / 1 it)");
    ("synth 33 fsl",
     "throughput 1/820 it/cycle (transient 3247, period 820 cycles / 1 it)");
    ("synth 33 noc",
     "throughput 1/820 it/cycle (transient 3251, period 820 cycles / 1 it)");
    ("synth 34 fsl",
     "throughput 1/891 it/cycle (transient 4698, period 891 cycles / 1 it)");
    ("synth 34 noc",
     "throughput 1/891 it/cycle (transient 4702, period 891 cycles / 1 it)");
    ("synth 35 fsl",
     "throughput 1/1366 it/cycle (transient 0, period 1366 cycles / 1 it)");
    ("synth 35 noc",
     "throughput 1/1374 it/cycle (transient 0, period 1374 cycles / 1 it)");
    ("synth 36 fsl",
     "throughput 1/691 it/cycle (transient 0, period 691 cycles / 1 it)");
    ("synth 36 noc",
     "throughput 1/691 it/cycle (transient 0, period 691 cycles / 1 it)");
    ("synth 37 fsl",
     "throughput 1/843 it/cycle (transient 1268, period 843 cycles / 1 it)");
    ("synth 37 noc",
     "throughput 1/843 it/cycle (transient 1272, period 843 cycles / 1 it)");
    ("synth 38 fsl",
     "throughput 1/971 it/cycle (transient 1962, period 971 cycles / 1 it)");
    ("synth 38 noc",
     "throughput 1/971 it/cycle (transient 1966, period 971 cycles / 1 it)");
    ("synth 39 fsl",
     "throughput 1/737 it/cycle (transient 2196, period 737 cycles / 1 it)");
    ("synth 39 noc",
     "throughput 1/737 it/cycle (transient 2200, period 737 cycles / 1 it)");
    ("synth 40 fsl",
     "throughput 1/1360 it/cycle (transient 195, period 1360 cycles / 1 it)");
    ("synth 40 noc",
     "throughput 1/1376 it/cycle (transient 201, period 1376 cycles / 1 it)");
    ("synth 41 fsl",
     "throughput 1/823 it/cycle (transient 0, period 823 cycles / 1 it)");
    ("synth 41 noc",
     "throughput 1/823 it/cycle (transient 0, period 823 cycles / 1 it)");
    ("synth 42 fsl",
     "throughput 1/533 it/cycle (transient 335, period 533 cycles / 1 it)");
    ("synth 42 noc",
     "throughput 1/533 it/cycle (transient 335, period 533 cycles / 1 it)");
    ("synth 43 fsl",
     "throughput 1/668 it/cycle (transient 19569, period 668 cycles / 1 it)");
    ("synth 43 noc",
     "throughput 1/668 it/cycle (transient 18951, period 668 cycles / 1 it)");
    ("synth 44 fsl",
     "throughput 1/707 it/cycle (transient 1392, period 707 cycles / 1 it)");
    ("synth 44 noc",
     "throughput 1/707 it/cycle (transient 1396, period 707 cycles / 1 it)");
    ("synth 45 fsl",
     "throughput 1/954 it/cycle (transient 0, period 954 cycles / 1 it)");
    ("synth 45 noc",
     "throughput 1/954 it/cycle (transient 0, period 954 cycles / 1 it)");
    ("synth 46 fsl",
     "throughput 1/1430 it/cycle (transient 0, period 1430 cycles / 1 it)");
    ("synth 46 noc",
     "throughput 1/1438 it/cycle (transient 0, period 1438 cycles / 1 it)");
    ("synth 47 fsl",
     "throughput 1/816 it/cycle (transient 5101, period 816 cycles / 1 it)");
    ("synth 47 noc",
     "throughput 1/816 it/cycle (transient 5105, period 816 cycles / 1 it)");
    ("synth 48 fsl",
     "throughput 1/961 it/cycle (transient 538, period 961 cycles / 1 it)");
    ("synth 48 noc",
     "throughput 1/961 it/cycle (transient 544, period 961 cycles / 1 it)");
    ("synth 49 fsl",
     "throughput 1/817 it/cycle (transient 0, period 817 cycles / 1 it)");
    ("synth 49 noc",
     "throughput 1/817 it/cycle (transient 0, period 817 cycles / 1 it)");
    ("synth 50 fsl",
     "throughput 1/734 it/cycle (transient 5858, period 734 cycles / 1 it)");
    ("synth 50 noc",
     "throughput 1/734 it/cycle (transient 5868, period 734 cycles / 1 it)");
    ("engine 1 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 1 lower-bound",
     "throughput 1/666 it/cycle (transient 323, period 666 cycles / 1 it)");
    ("engine 1 double",
     "throughput 1/279 it/cycle (transient 6572, period 279 cycles / 1 it)");
    ("engine 1 ac2",
     "throughput 1/256 it/cycle (transient 384, period 256 cycles / 1 it)");
    ("engine 1 ac3",
     "throughput 3/512 it/cycle (transient 384, period 512 cycles / 3 it)");
    ("engine 1 ac-none",
     "throughput 1/256 it/cycle (transient 323, period 256 cycles / 1 it)");
    ("engine 1 static-order",
     "deadlock at t=67 after 0 iterations");
    ("engine 1 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 1 max-firings",
     "step budget exhausted (22 steps, no recurrence yet)");
    ("engine 2 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 2 lower-bound",
     "throughput 1/362 it/cycle (transient 42, period 362 cycles / 1 it)");
    ("engine 2 double",
     "throughput 1/234 it/cycle (transient 106, period 234 cycles / 1 it)");
    ("engine 2 ac2",
     "throughput 1/149 it/cycle (transient 74, period 298 cycles / 2 it)");
    ("engine 2 ac3",
     "throughput 3/362 it/cycle (transient 42, period 362 cycles / 3 it)");
    ("engine 2 ac-none",
     "throughput 1/110 it/cycle (transient 42, period 110 cycles / 1 it)");
    ("engine 2 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 2 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 2 max-firings",
     "throughput 1/234 it/cycle (transient 106, period 234 cycles / 1 it)");
    ("engine 3 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 3 lower-bound",
     "throughput 1/452 it/cycle (transient 157, period 452 cycles / 1 it)");
    ("engine 3 double",
     "throughput 1/248 it/cycle (transient 157, period 248 cycles / 1 it)");
    ("engine 3 ac2",
     "throughput 1/226 it/cycle (transient 157, period 226 cycles / 1 it)");
    ("engine 3 ac3",
     "throughput 3/452 it/cycle (transient 157, period 452 cycles / 3 it)");
    ("engine 3 ac-none",
     "throughput 1/226 it/cycle (transient 157, period 226 cycles / 1 it)");
    ("engine 3 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 3 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 3 max-firings",
     "step budget exhausted (23 steps, no recurrence yet)");
    ("engine 4 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 4 lower-bound",
     "throughput 1/667 it/cycle (transient 126, period 667 cycles / 1 it)");
    ("engine 4 double",
     "throughput 1/628 it/cycle (transient 126, period 628 cycles / 1 it)");
    ("engine 4 ac2",
     "throughput 1/440 it/cycle (transient 113, period 440 cycles / 1 it)");
    ("engine 4 ac3",
     "throughput 1/440 it/cycle (transient 224, period 440 cycles / 1 it)");
    ("engine 4 ac-none",
     "throughput 1/440 it/cycle (transient 113, period 440 cycles / 1 it)");
    ("engine 4 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 4 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 4 max-firings",
     "throughput 1/628 it/cycle (transient 126, period 628 cycles / 1 it)");
    ("engine 5 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 5 lower-bound",
     "deadlock at t=672 after 0 iterations");
    ("engine 5 double",
     "throughput 1/431 it/cycle (transient 373, period 431 cycles / 1 it)");
    ("engine 5 ac2",
     "throughput 1/364 it/cycle (transient 360, period 364 cycles / 1 it)");
    ("engine 5 ac3",
     "throughput 1/243 it/cycle (transient 414, period 243 cycles / 1 it)");
    ("engine 5 ac-none",
     "throughput 1/364 it/cycle (transient 239, period 364 cycles / 1 it)");
    ("engine 5 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 5 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 5 max-firings",
     "step budget exhausted (24 steps, no recurrence yet)");
    ("engine 6 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 6 lower-bound",
     "throughput 1/302 it/cycle (transient 68, period 302 cycles / 1 it)");
    ("engine 6 double",
     "throughput 1/228 it/cycle (transient 182, period 228 cycles / 1 it)");
    ("engine 6 ac2",
     "throughput 1/114 it/cycle (transient 125, period 114 cycles / 1 it)");
    ("engine 6 ac3",
     "throughput 1/76 it/cycle (transient 125, period 228 cycles / 3 it)");
    ("engine 6 ac-none",
     "throughput 2/131 it/cycle (transient 68, period 131 cycles / 2 it)");
    ("engine 6 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 6 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 6 max-firings",
     "throughput 1/228 it/cycle (transient 182, period 228 cycles / 1 it)");
    ("engine 7 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 7 lower-bound",
     "deadlock at t=305 after 0 iterations");
    ("engine 7 double",
     "throughput 1/667 it/cycle (transient 658, period 667 cycles / 1 it)");
    ("engine 7 ac2",
     "throughput 1/548 it/cycle (transient 292, period 548 cycles / 1 it)");
    ("engine 7 ac3",
     "throughput 1/548 it/cycle (transient 303, period 548 cycles / 1 it)");
    ("engine 7 ac-none",
     "throughput 1/548 it/cycle (transient 207, period 548 cycles / 1 it)");
    ("engine 7 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 7 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 7 max-firings",
     "step budget exhausted (23 steps, no recurrence yet)");
    ("engine 8 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 8 lower-bound",
     "throughput 1/344 it/cycle (transient 50, period 344 cycles / 1 it)");
    ("engine 8 double",
     "throughput 1/276 it/cycle (transient 100, period 276 cycles / 1 it)");
    ("engine 8 ac2",
     "throughput 1/185 it/cycle (transient 108, period 185 cycles / 1 it)");
    ("engine 8 ac3",
     "throughput 1/167 it/cycle (transient 108, period 167 cycles / 1 it)");
    ("engine 8 ac-none",
     "throughput 1/167 it/cycle (transient 108, period 167 cycles / 1 it)");
    ("engine 8 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 8 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 8 max-firings",
     "throughput 1/276 it/cycle (transient 100, period 276 cycles / 1 it)");
    ("engine 9 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 9 lower-bound",
     "throughput 1/725 it/cycle (transient 675, period 725 cycles / 1 it)");
    ("engine 9 double",
     "throughput 1/521 it/cycle (transient 1241, period 521 cycles / 1 it)");
    ("engine 9 ac2",
     "throughput 1/362 it/cycle (transient 552, period 362 cycles / 1 it)");
    ("engine 9 ac3",
     "throughput 1/347 it/cycle (transient 710, period 347 cycles / 1 it)");
    ("engine 9 ac-none",
     "throughput 1/362 it/cycle (transient 581, period 362 cycles / 1 it)");
    ("engine 9 static-order",
     "deadlock at t=99 after 0 iterations");
    ("engine 9 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 9 max-firings",
     "step budget exhausted (22 steps, no recurrence yet)");
    ("engine 10 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 10 lower-bound",
     "throughput 1/227 it/cycle (transient 685, period 227 cycles / 1 it)");
    ("engine 10 double",
     "throughput 1/186 it/cycle (transient 489, period 186 cycles / 1 it)");
    ("engine 10 ac2",
     "throughput 1/153 it/cycle (transient 415, period 153 cycles / 1 it)");
    ("engine 10 ac3",
     "throughput 1/102 it/cycle (transient 232, period 102 cycles / 1 it)");
    ("engine 10 ac-none",
     "throughput 1/153 it/cycle (transient 231, period 153 cycles / 1 it)");
    ("engine 10 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 10 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 10 max-firings",
     "step budget exhausted (23 steps, no recurrence yet)");
    ("engine 11 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 11 lower-bound",
     "throughput 1/414 it/cycle (transient 1147, period 414 cycles / 1 it)");
    ("engine 11 double",
     "throughput 1/282 it/cycle (transient 11509, period 282 cycles / 1 it)");
    ("engine 11 ac2",
     "throughput 1/174 it/cycle (transient 1174, period 348 cycles / 2 it)");
    ("engine 11 ac3",
     "throughput 4/381 it/cycle (transient 4489, period 381 cycles / 4 it)");
    ("engine 11 ac-none",
     "throughput 1/127 it/cycle (transient 586, period 127 cycles / 1 it)");
    ("engine 11 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 11 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 11 max-firings",
     "step budget exhausted (24 steps, no recurrence yet)");
    ("engine 12 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 12 lower-bound",
     "throughput 1/700 it/cycle (transient 227, period 700 cycles / 1 it)");
    ("engine 12 double",
     "throughput 1/517 it/cycle (transient 196, period 517 cycles / 1 it)");
    ("engine 12 ac2",
     "throughput 1/428 it/cycle (transient 227, period 428 cycles / 1 it)");
    ("engine 12 ac3",
     "throughput 1/359 it/cycle (transient 227, period 359 cycles / 1 it)");
    ("engine 12 ac-none",
     "throughput 1/359 it/cycle (transient 49, period 359 cycles / 1 it)");
    ("engine 12 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 12 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 12 max-firings",
     "throughput 1/517 it/cycle (transient 196, period 517 cycles / 1 it)");
    ("engine 13 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 13 lower-bound",
     "throughput 1/519 it/cycle (transient 23, period 519 cycles / 1 it)");
    ("engine 13 double",
     "throughput 1/232 it/cycle (transient 595, period 464 cycles / 2 it)");
    ("engine 13 ac2",
     "throughput 2/325 it/cycle (transient 479, period 325 cycles / 2 it)");
    ("engine 13 ac3",
     "throughput 3/325 it/cycle (transient 488, period 325 cycles / 3 it)");
    ("engine 13 ac-none",
     "throughput 2/271 it/cycle (transient 217, period 271 cycles / 2 it)");
    ("engine 13 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 13 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 13 max-firings",
     "step budget exhausted (23 steps, no recurrence yet)");
    ("engine 14 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 14 lower-bound",
     "throughput 1/869 it/cycle (transient 243, period 869 cycles / 1 it)");
    ("engine 14 double",
     "throughput 1/719 it/cycle (transient 243, period 719 cycles / 1 it)");
    ("engine 14 ac2",
     "throughput 1/585 it/cycle (transient 49, period 585 cycles / 1 it)");
    ("engine 14 ac3",
     "throughput 1/585 it/cycle (transient 49, period 585 cycles / 1 it)");
    ("engine 14 ac-none",
     "throughput 1/585 it/cycle (transient 49, period 585 cycles / 1 it)");
    ("engine 14 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 14 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 14 max-firings",
     "step budget exhausted (24 steps, no recurrence yet)");
    ("engine 15 unbounded",
     "throughput 1/513 it/cycle (transient 0, period 513 cycles / 1 it)");
    ("engine 15 lower-bound",
     "throughput 1/571 it/cycle (transient 0, period 571 cycles / 1 it)");
    ("engine 15 double",
     "throughput 1/513 it/cycle (transient 0, period 513 cycles / 1 it)");
    ("engine 15 ac2",
     "throughput 1/321 it/cycle (transient 0, period 321 cycles / 1 it)");
    ("engine 15 ac3",
     "throughput 1/321 it/cycle (transient 0, period 321 cycles / 1 it)");
    ("engine 15 ac-none",
     "throughput 1/225 it/cycle (transient 0, period 225 cycles / 1 it)");
    ("engine 15 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 15 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 15 max-firings",
     "throughput 1/513 it/cycle (transient 0, period 513 cycles / 1 it)");
    ("engine 16 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 16 lower-bound",
     "throughput 1/384 it/cycle (transient 315, period 384 cycles / 1 it)");
    ("engine 16 double",
     "throughput 1/234 it/cycle (transient 302, period 234 cycles / 1 it)");
    ("engine 16 ac2",
     "throughput 2/275 it/cycle (transient 572, period 275 cycles / 2 it)");
    ("engine 16 ac3",
     "throughput 1/83 it/cycle (transient 1737, period 166 cycles / 2 it)");
    ("engine 16 ac-none",
     "throughput 1/109 it/cycle (transient 840, period 109 cycles / 1 it)");
    ("engine 16 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 16 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 16 max-firings",
     "step budget exhausted (22 steps, no recurrence yet)");
    ("engine 17 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 17 lower-bound",
     "throughput 1/504 it/cycle (transient 399, period 504 cycles / 1 it)");
    ("engine 17 double",
     "throughput 1/396 it/cycle (transient 490, period 396 cycles / 1 it)");
    ("engine 17 ac2",
     "throughput 1/205 it/cycle (transient 330, period 205 cycles / 1 it)");
    ("engine 17 ac3",
     "throughput 1/205 it/cycle (transient 338, period 205 cycles / 1 it)");
    ("engine 17 ac-none",
     "throughput 1/205 it/cycle (transient 291, period 205 cycles / 1 it)");
    ("engine 17 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 17 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 17 max-firings",
     "step budget exhausted (23 steps, no recurrence yet)");
    ("engine 18 unbounded",
     "throughput 1/253 it/cycle (transient 0, period 253 cycles / 1 it)");
    ("engine 18 lower-bound",
     "throughput 1/253 it/cycle (transient 0, period 253 cycles / 1 it)");
    ("engine 18 double",
     "throughput 1/253 it/cycle (transient 0, period 253 cycles / 1 it)");
    ("engine 18 ac2",
     "throughput 1/173 it/cycle (transient 0, period 173 cycles / 1 it)");
    ("engine 18 ac3",
     "throughput 1/173 it/cycle (transient 0, period 173 cycles / 1 it)");
    ("engine 18 ac-none",
     "throughput 1/138 it/cycle (transient 0, period 138 cycles / 1 it)");
    ("engine 18 static-order",
     "deadlock at t=21 after 0 iterations");
    ("engine 18 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 18 max-firings",
     "throughput 1/253 it/cycle (transient 0, period 253 cycles / 1 it)");
    ("engine 19 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 19 lower-bound",
     "throughput 1/284 it/cycle (transient 691, period 284 cycles / 1 it)");
    ("engine 19 double",
     "throughput 1/220 it/cycle (transient 4182, period 220 cycles / 1 it)");
    ("engine 19 ac2",
     "throughput 1/112 it/cycle (transient 2139, period 224 cycles / 2 it)");
    ("engine 19 ac3",
     "throughput 2/169 it/cycle (transient 1344, period 169 cycles / 2 it)");
    ("engine 19 ac-none",
     "throughput 1/97 it/cycle (transient 166, period 97 cycles / 1 it)");
    ("engine 19 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 19 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 19 max-firings",
     "step budget exhausted (24 steps, no recurrence yet)");
    ("engine 20 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 20 lower-bound",
     "deadlock at t=56 after 0 iterations");
    ("engine 20 double",
     "throughput 1/665 it/cycle (transient 350, period 665 cycles / 1 it)");
    ("engine 20 ac2",
     "throughput 1/473 it/cycle (transient 350, period 473 cycles / 1 it)");
    ("engine 20 ac3",
     "throughput 1/377 it/cycle (transient 281, period 377 cycles / 1 it)");
    ("engine 20 ac-none",
     "throughput 1/377 it/cycle (transient 0, period 377 cycles / 1 it)");
    ("engine 20 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 20 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 20 max-firings",
     "step budget exhausted (24 steps, no recurrence yet)");
    ("engine 21 unbounded",
     "throughput 1/463 it/cycle (transient 214, period 463 cycles / 1 it)");
    ("engine 21 lower-bound",
     "throughput 1/571 it/cycle (transient 250, period 571 cycles / 1 it)");
    ("engine 21 double",
     "throughput 1/463 it/cycle (transient 214, period 463 cycles / 1 it)");
    ("engine 21 ac2",
     "throughput 1/321 it/cycle (transient 125, period 321 cycles / 1 it)");
    ("engine 21 ac3",
     "throughput 1/321 it/cycle (transient 125, period 321 cycles / 1 it)");
    ("engine 21 ac-none",
     "throughput 1/321 it/cycle (transient 125, period 321 cycles / 1 it)");
    ("engine 21 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 21 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 21 max-firings",
     "throughput 1/463 it/cycle (transient 214, period 463 cycles / 1 it)");
    ("engine 22 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 22 lower-bound",
     "throughput 1/315 it/cycle (transient 326, period 315 cycles / 1 it)");
    ("engine 22 double",
     "throughput 1/219 it/cycle (transient 810, period 219 cycles / 1 it)");
    ("engine 22 ac2",
     "throughput 2/315 it/cycle (transient 386, period 315 cycles / 2 it)");
    ("engine 22 ac3",
     "throughput 1/105 it/cycle (transient 405, period 105 cycles / 1 it)");
    ("engine 22 ac-none",
     "throughput 2/315 it/cycle (transient 386, period 315 cycles / 2 it)");
    ("engine 22 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 22 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 22 max-firings",
     "step budget exhausted (21 steps, no recurrence yet)");
    ("engine 23 unbounded",
     "throughput 1/316 it/cycle (transient 387, period 316 cycles / 1 it)");
    ("engine 23 lower-bound",
     "throughput 1/408 it/cycle (transient 408, period 408 cycles / 1 it)");
    ("engine 23 double",
     "throughput 1/316 it/cycle (transient 387, period 316 cycles / 1 it)");
    ("engine 23 ac2",
     "throughput 1/204 it/cycle (transient 306, period 204 cycles / 1 it)");
    ("engine 23 ac3",
     "throughput 1/136 it/cycle (transient 252, period 408 cycles / 3 it)");
    ("engine 23 ac-none",
     "throughput 1/204 it/cycle (transient 306, period 204 cycles / 1 it)");
    ("engine 23 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 23 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 23 max-firings",
     "step budget exhausted (23 steps, no recurrence yet)");
    ("engine 24 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 24 lower-bound",
     "throughput 1/747 it/cycle (transient 39, period 747 cycles / 1 it)");
    ("engine 24 double",
     "throughput 1/598 it/cycle (transient 173, period 598 cycles / 1 it)");
    ("engine 24 ac2",
     "throughput 1/437 it/cycle (transient 39, period 437 cycles / 1 it)");
    ("engine 24 ac3",
     "throughput 1/426 it/cycle (transient 39, period 426 cycles / 1 it)");
    ("engine 24 ac-none",
     "throughput 1/426 it/cycle (transient 39, period 426 cycles / 1 it)");
    ("engine 24 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 24 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 24 max-firings",
     "step budget exhausted (24 steps, no recurrence yet)");
    ("engine 25 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 25 lower-bound",
     "deadlock at t=196 after 0 iterations");
    ("engine 25 double",
     "throughput 1/395 it/cycle (transient 196, period 395 cycles / 1 it)");
    ("engine 25 ac2",
     "throughput 1/297 it/cycle (transient 196, period 297 cycles / 1 it)");
    ("engine 25 ac3",
     "throughput 1/246 it/cycle (transient 98, period 246 cycles / 1 it)");
    ("engine 25 ac-none",
     "throughput 1/246 it/cycle (transient 98, period 246 cycles / 1 it)");
    ("engine 25 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 25 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 25 max-firings",
     "throughput 1/395 it/cycle (transient 196, period 395 cycles / 1 it)");
    ("engine 26 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 26 lower-bound",
     "throughput 1/397 it/cycle (transient 197, period 397 cycles / 1 it)");
    ("engine 26 double",
     "throughput 1/268 it/cycle (transient 374, period 268 cycles / 1 it)");
    ("engine 26 ac2",
     "throughput 2/287 it/cycle (transient 338, period 287 cycles / 2 it)");
    ("engine 26 ac3",
     "throughput 3/268 it/cycle (transient 2080, period 268 cycles / 3 it)");
    ("engine 26 ac-none",
     "throughput 1/110 it/cycle (transient 601, period 110 cycles / 1 it)");
    ("engine 26 static-order",
     "deadlock at t=2 after 0 iterations");
    ("engine 26 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 26 max-firings",
     "step budget exhausted (23 steps, no recurrence yet)");
    ("engine 27 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 27 lower-bound",
     "throughput 1/423 it/cycle (transient 157, period 423 cycles / 1 it)");
    ("engine 27 double",
     "throughput 1/360 it/cycle (transient 247, period 360 cycles / 1 it)");
    ("engine 27 ac2",
     "throughput 1/180 it/cycle (transient 224, period 180 cycles / 1 it)");
    ("engine 27 ac3",
     "throughput 1/147 it/cycle (transient 1221, period 147 cycles / 1 it)");
    ("engine 27 ac-none",
     "throughput 1/147 it/cycle (transient 451, period 147 cycles / 1 it)");
    ("engine 27 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 27 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 27 max-firings",
     "step budget exhausted (24 steps, no recurrence yet)");
    ("engine 28 unbounded",
     "throughput 1/324 it/cycle (transient 338, period 324 cycles / 1 it)");
    ("engine 28 lower-bound",
     "deadlock at t=176 after 0 iterations");
    ("engine 28 double",
     "throughput 1/493 it/cycle (transient 162, period 493 cycles / 1 it)");
    ("engine 28 ac2",
     "throughput 1/331 it/cycle (transient 81, period 331 cycles / 1 it)");
    ("engine 28 ac3",
     "throughput 1/250 it/cycle (transient 331, period 250 cycles / 1 it)");
    ("engine 28 ac-none",
     "throughput 1/250 it/cycle (transient 81, period 250 cycles / 1 it)");
    ("engine 28 static-order",
     "deadlock at t=162 after 0 iterations");
    ("engine 28 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 28 max-firings",
     "throughput 1/493 it/cycle (transient 162, period 493 cycles / 1 it)");
    ("engine 29 unbounded",
     "throughput 1/112 it/cycle (transient 72, period 112 cycles / 1 it)");
    ("engine 29 lower-bound",
     "throughput 1/212 it/cycle (transient 0, period 212 cycles / 1 it)");
    ("engine 29 double",
     "throughput 1/112 it/cycle (transient 72, period 112 cycles / 1 it)");
    ("engine 29 ac2",
     "throughput 1/72 it/cycle (transient 72, period 72 cycles / 1 it)");
    ("engine 29 ac3",
     "throughput 1/72 it/cycle (transient 100, period 72 cycles / 1 it)");
    ("engine 29 ac-none",
     "throughput 1/72 it/cycle (transient 44, period 72 cycles / 1 it)");
    ("engine 29 static-order",
     "deadlock at t=100 after 0 iterations");
    ("engine 29 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 29 max-firings",
     "throughput 1/112 it/cycle (transient 72, period 112 cycles / 1 it)");
    ("engine 30 unbounded",
     "throughput 1/207 it/cycle (transient 138, period 207 cycles / 1 it)");
    ("engine 30 lower-bound",
     "deadlock at t=138 after 0 iterations");
    ("engine 30 double",
     "throughput 1/218 it/cycle (transient 138, period 218 cycles / 1 it)");
    ("engine 30 ac2",
     "throughput 1/149 it/cycle (transient 218, period 149 cycles / 1 it)");
    ("engine 30 ac3",
     "throughput 2/149 it/cycle (transient 69, period 149 cycles / 2 it)");
    ("engine 30 ac-none",
     "throughput 1/149 it/cycle (transient 69, period 149 cycles / 1 it)");
    ("engine 30 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 30 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 30 max-firings",
     "throughput 1/218 it/cycle (transient 138, period 218 cycles / 1 it)");
    ("engine 31 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 31 lower-bound",
     "throughput 1/306 it/cycle (transient 132, period 306 cycles / 1 it)");
    ("engine 31 double",
     "throughput 1/189 it/cycle (transient 195, period 189 cycles / 1 it)");
    ("engine 31 ac2",
     "throughput 1/189 it/cycle (transient 132, period 189 cycles / 1 it)");
    ("engine 31 ac3",
     "throughput 1/102 it/cycle (transient 219, period 102 cycles / 1 it)");
    ("engine 31 ac-none",
     "throughput 1/189 it/cycle (transient 132, period 189 cycles / 1 it)");
    ("engine 31 static-order",
     "deadlock at t=195 after 0 iterations");
    ("engine 31 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 31 max-firings",
     "throughput 1/189 it/cycle (transient 195, period 189 cycles / 1 it)");
    ("engine 32 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 32 lower-bound",
     "throughput 1/481 it/cycle (transient 123, period 481 cycles / 1 it)");
    ("engine 32 double",
     "throughput 1/361 it/cycle (transient 380, period 361 cycles / 1 it)");
    ("engine 32 ac2",
     "throughput 1/273 it/cycle (transient 147, period 273 cycles / 1 it)");
    ("engine 32 ac3",
     "throughput 1/273 it/cycle (transient 170, period 273 cycles / 1 it)");
    ("engine 32 ac-none",
     "throughput 1/273 it/cycle (transient 41, period 273 cycles / 1 it)");
    ("engine 32 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 32 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 32 max-firings",
     "step budget exhausted (25 steps, no recurrence yet)");
    ("engine 33 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 33 lower-bound",
     "throughput 1/691 it/cycle (transient 439, period 691 cycles / 1 it)");
    ("engine 33 double",
     "throughput 1/360 it/cycle (transient 641, period 360 cycles / 1 it)");
    ("engine 33 ac2",
     "throughput 1/222 it/cycle (transient 666, period 222 cycles / 1 it)");
    ("engine 33 ac3",
     "throughput 1/222 it/cycle (transient 385, period 222 cycles / 1 it)");
    ("engine 33 ac-none",
     "throughput 1/163 it/cycle (transient 792, period 163 cycles / 1 it)");
    ("engine 33 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 33 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 33 max-firings",
     "step budget exhausted (22 steps, no recurrence yet)");
    ("engine 34 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 34 lower-bound",
     "throughput 1/726 it/cycle (transient 431, period 726 cycles / 1 it)");
    ("engine 34 double",
     "throughput 1/304 it/cycle (transient 3526, period 304 cycles / 1 it)");
    ("engine 34 ac2",
     "throughput 2/457 it/cycle (transient 633, period 457 cycles / 2 it)");
    ("engine 34 ac3",
     "throughput 1/142 it/cycle (transient 513, period 142 cycles / 1 it)");
    ("engine 34 ac-none",
     "throughput 2/457 it/cycle (transient 612, period 457 cycles / 2 it)");
    ("engine 34 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 34 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 34 max-firings",
     "step budget exhausted (22 steps, no recurrence yet)");
    ("engine 35 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 35 lower-bound",
     "throughput 1/525 it/cycle (transient 209, period 525 cycles / 1 it)");
    ("engine 35 double",
     "throughput 1/258 it/cycle (transient 333, period 258 cycles / 1 it)");
    ("engine 35 ac2",
     "throughput 2/435 it/cycle (transient 256, period 435 cycles / 2 it)");
    ("engine 35 ac3",
     "throughput 1/145 it/cycle (transient 256, period 145 cycles / 1 it)");
    ("engine 35 ac-none",
     "throughput 2/435 it/cycle (transient 375, period 435 cycles / 2 it)");
    ("engine 35 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 35 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 35 max-firings",
     "step budget exhausted (22 steps, no recurrence yet)");
    ("engine 36 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 36 lower-bound",
     "throughput 1/605 it/cycle (transient 86, period 605 cycles / 1 it)");
    ("engine 36 double",
     "throughput 1/392 it/cycle (transient 353, period 392 cycles / 1 it)");
    ("engine 36 ac2",
     "throughput 1/218 it/cycle (transient 958, period 436 cycles / 2 it)");
    ("engine 36 ac3",
     "throughput 1/147 it/cycle (transient 495, period 441 cycles / 3 it)");
    ("engine 36 ac-none",
     "throughput 1/169 it/cycle (transient 86, period 169 cycles / 1 it)");
    ("engine 36 static-order",
     "deadlock at t=108 after 0 iterations");
    ("engine 36 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 36 max-firings",
     "throughput 1/392 it/cycle (transient 353, period 392 cycles / 1 it)");
    ("engine 37 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 37 lower-bound",
     "throughput 1/497 it/cycle (transient 543, period 497 cycles / 1 it)");
    ("engine 37 double",
     "throughput 1/292 it/cycle (transient 607, period 292 cycles / 1 it)");
    ("engine 37 ac2",
     "throughput 1/194 it/cycle (transient 1083, period 388 cycles / 2 it)");
    ("engine 37 ac3",
     "throughput 2/219 it/cycle (transient 1806, period 438 cycles / 4 it)");
    ("engine 37 ac-none",
     "throughput 1/194 it/cycle (transient 515, period 388 cycles / 2 it)");
    ("engine 37 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 37 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 37 max-firings",
     "step budget exhausted (22 steps, no recurrence yet)");
    ("engine 38 unbounded",
     "throughput 1/392 it/cycle (transient 294, period 392 cycles / 1 it)");
    ("engine 38 lower-bound",
     "deadlock at t=343 after 0 iterations");
    ("engine 38 double",
     "throughput 1/570 it/cycle (transient 98, period 570 cycles / 1 it)");
    ("engine 38 ac2",
     "throughput 1/374 it/cycle (transient 98, period 374 cycles / 1 it)");
    ("engine 38 ac3",
     "throughput 1/276 it/cycle (transient 472, period 276 cycles / 1 it)");
    ("engine 38 ac-none",
     "throughput 1/276 it/cycle (transient 0, period 276 cycles / 1 it)");
    ("engine 38 static-order",
     "deadlock at t=98 after 0 iterations");
    ("engine 38 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 38 max-firings",
     "throughput 1/570 it/cycle (transient 98, period 570 cycles / 1 it)");
    ("engine 39 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 39 lower-bound",
     "throughput 1/517 it/cycle (transient 78, period 517 cycles / 1 it)");
    ("engine 39 double",
     "throughput 1/243 it/cycle (transient 313, period 243 cycles / 1 it)");
    ("engine 39 ac2",
     "throughput 2/325 it/cycle (transient 232, period 325 cycles / 2 it)");
    ("engine 39 ac3",
     "throughput 1/92 it/cycle (transient 1558, period 460 cycles / 5 it)");
    ("engine 39 ac-none",
     "throughput 1/122 it/cycle (transient 175, period 122 cycles / 1 it)");
    ("engine 39 static-order",
     "deadlock at t=142 after 0 iterations");
    ("engine 39 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 39 max-firings",
     "step budget exhausted (24 steps, no recurrence yet)");
    ("engine 40 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 40 lower-bound",
     "throughput 1/531 it/cycle (transient 463, period 531 cycles / 1 it)");
    ("engine 40 double",
     "throughput 1/300 it/cycle (transient 564, period 300 cycles / 1 it)");
    ("engine 40 ac2",
     "throughput 2/531 it/cycle (transient 440, period 531 cycles / 2 it)");
    ("engine 40 ac3",
     "throughput 1/177 it/cycle (transient 416, period 177 cycles / 1 it)");
    ("engine 40 ac-none",
     "throughput 2/531 it/cycle (transient 347, period 531 cycles / 2 it)");
    ("engine 40 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 40 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 40 max-firings",
     "step budget exhausted (22 steps, no recurrence yet)");
    ("engine 41 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 41 lower-bound",
     "deadlock at t=4 after 0 iterations");
    ("engine 41 double",
     "throughput 1/435 it/cycle (transient 427, period 435 cycles / 1 it)");
    ("engine 41 ac2",
     "throughput 1/340 it/cycle (transient 425, period 340 cycles / 1 it)");
    ("engine 41 ac3",
     "throughput 2/585 it/cycle (transient 83, period 585 cycles / 2 it)");
    ("engine 41 ac-none",
     "throughput 1/245 it/cycle (transient 83, period 245 cycles / 1 it)");
    ("engine 41 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 41 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 41 max-firings",
     "step budget exhausted (24 steps, no recurrence yet)");
    ("engine 42 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 42 lower-bound",
     "throughput 1/267 it/cycle (transient 181, period 267 cycles / 1 it)");
    ("engine 42 double",
     "throughput 1/176 it/cycle (transient 773, period 176 cycles / 1 it)");
    ("engine 42 ac2",
     "throughput 1/118 it/cycle (transient 118, period 118 cycles / 1 it)");
    ("engine 42 ac3",
     "throughput 1/118 it/cycle (transient 118, period 118 cycles / 1 it)");
    ("engine 42 ac-none",
     "throughput 1/118 it/cycle (transient 118, period 118 cycles / 1 it)");
    ("engine 42 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 42 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 42 max-firings",
     "step budget exhausted (24 steps, no recurrence yet)");
    ("engine 43 unbounded",
     "throughput 1/200 it/cycle (transient 1192, period 200 cycles / 1 it)");
    ("engine 43 lower-bound",
     "throughput 1/445 it/cycle (transient 0, period 445 cycles / 1 it)");
    ("engine 43 double",
     "throughput 2/407 it/cycle (transient 507, period 407 cycles / 2 it)");
    ("engine 43 ac2",
     "throughput 2/307 it/cycle (transient 307, period 307 cycles / 2 it)");
    ("engine 43 ac3",
     "throughput 2/223 it/cycle (transient 391, period 223 cycles / 2 it)");
    ("engine 43 ac-none",
     "throughput 2/307 it/cycle (transient 307, period 307 cycles / 2 it)");
    ("engine 43 static-order",
     "deadlock at t=168 after 0 iterations");
    ("engine 43 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 43 max-firings",
     "step budget exhausted (23 steps, no recurrence yet)");
    ("engine 44 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 44 lower-bound",
     "throughput 1/473 it/cycle (transient 193, period 473 cycles / 1 it)");
    ("engine 44 double",
     "throughput 1/344 it/cycle (transient 623, period 344 cycles / 1 it)");
    ("engine 44 ac2",
     "throughput 1/172 it/cycle (transient 359, period 172 cycles / 1 it)");
    ("engine 44 ac3",
     "throughput 1/116 it/cycle (transient 660, period 232 cycles / 2 it)");
    ("engine 44 ac-none",
     "throughput 1/146 it/cycle (transient 333, period 146 cycles / 1 it)");
    ("engine 44 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 44 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 44 max-firings",
     "step budget exhausted (22 steps, no recurrence yet)");
    ("engine 45 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 45 lower-bound",
     "deadlock at t=399 after 0 iterations");
    ("engine 45 double",
     "throughput 1/424 it/cycle (transient 480, period 424 cycles / 1 it)");
    ("engine 45 ac2",
     "throughput 1/327 it/cycle (transient 1091, period 327 cycles / 1 it)");
    ("engine 45 ac3",
     "throughput 1/230 it/cycle (transient 549, period 230 cycles / 1 it)");
    ("engine 45 ac-none",
     "throughput 1/230 it/cycle (transient 240, period 230 cycles / 1 it)");
    ("engine 45 static-order",
     "deadlock at t=16 after 0 iterations");
    ("engine 45 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 45 max-firings",
     "step budget exhausted (23 steps, no recurrence yet)");
    ("engine 46 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 46 lower-bound",
     "throughput 1/699 it/cycle (transient 318, period 699 cycles / 1 it)");
    ("engine 46 double",
     "throughput 1/396 it/cycle (transient 339, period 396 cycles / 1 it)");
    ("engine 46 ac2",
     "throughput 2/459 it/cycle (transient 456, period 459 cycles / 2 it)");
    ("engine 46 ac3",
     "throughput 5/699 it/cycle (transient 636, period 699 cycles / 5 it)");
    ("engine 46 ac-none",
     "throughput 1/180 it/cycle (transient 159, period 180 cycles / 1 it)");
    ("engine 46 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 46 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 46 max-firings",
     "throughput 1/396 it/cycle (transient 339, period 396 cycles / 1 it)");
    ("engine 47 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 47 lower-bound",
     "throughput 1/583 it/cycle (transient 317, period 583 cycles / 1 it)");
    ("engine 47 double",
     "throughput 1/316 it/cycle (transient 391, period 316 cycles / 1 it)");
    ("engine 47 ac2",
     "throughput 1/288 it/cycle (transient 301, period 288 cycles / 1 it)");
    ("engine 47 ac3",
     "throughput 1/192 it/cycle (transient 301, period 576 cycles / 3 it)");
    ("engine 47 ac-none",
     "throughput 1/288 it/cycle (transient 241, period 288 cycles / 1 it)");
    ("engine 47 static-order",
     "deadlock at t=11 after 0 iterations");
    ("engine 47 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 47 max-firings",
     "step budget exhausted (23 steps, no recurrence yet)");
    ("engine 48 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 48 lower-bound",
     "throughput 1/507 it/cycle (transient 86, period 507 cycles / 1 it)");
    ("engine 48 double",
     "throughput 1/220 it/cycle (transient 229, period 220 cycles / 1 it)");
    ("engine 48 ac2",
     "throughput 1/176 it/cycle (transient 374, period 176 cycles / 1 it)");
    ("engine 48 ac3",
     "throughput 3/352 it/cycle (transient 337, period 352 cycles / 3 it)");
    ("engine 48 ac-none",
     "throughput 1/176 it/cycle (transient 374, period 176 cycles / 1 it)");
    ("engine 48 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 48 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 48 max-firings",
     "step budget exhausted (23 steps, no recurrence yet)");
    ("engine 49 unbounded",
     "throughput 1/572 it/cycle (transient 13, period 572 cycles / 1 it)");
    ("engine 49 lower-bound",
     "throughput 1/722 it/cycle (transient 13, period 722 cycles / 1 it)");
    ("engine 49 double",
     "throughput 1/572 it/cycle (transient 13, period 572 cycles / 1 it)");
    ("engine 49 ac2",
     "throughput 1/410 it/cycle (transient 13, period 410 cycles / 1 it)");
    ("engine 49 ac3",
     "throughput 1/369 it/cycle (transient 13, period 369 cycles / 1 it)");
    ("engine 49 ac-none",
     "throughput 1/294 it/cycle (transient 0, period 294 cycles / 1 it)");
    ("engine 49 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 49 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 49 max-firings",
     "throughput 1/572 it/cycle (transient 13, period 572 cycles / 1 it)");
    ("engine 50 unbounded",
     "step budget exhausted (5000 steps, no recurrence yet)");
    ("engine 50 lower-bound",
     "throughput 1/426 it/cycle (transient 598, period 426 cycles / 1 it)");
    ("engine 50 double",
     "throughput 1/296 it/cycle (transient 2404, period 296 cycles / 1 it)");
    ("engine 50 ac2",
     "throughput 1/148 it/cycle (transient 1244, period 148 cycles / 1 it)");
    ("engine 50 ac3",
     "throughput 3/296 it/cycle (transient 1452, period 296 cycles / 3 it)");
    ("engine 50 ac-none",
     "throughput 1/127 it/cycle (transient 1894, period 254 cycles / 2 it)");
    ("engine 50 static-order",
     "deadlock at t=0 after 0 iterations");
    ("engine 50 max-steps",
     "step budget exhausted (3 steps, no recurrence yet)");
    ("engine 50 max-firings",
     "step budget exhausted (22 steps, no recurrence yet)");
  ]

let buffers =
  [
    ("buffers 1 state-space trade-off",
     "19 [1,2,2,1,3,3,4,3] 1/666; 23 [2,2,2,1,4,4,4,4] 1/538; 27 [2,2,2,1,5,5,5,5] 1/471; 28 [2,3,2,1,5,5,5,5] 1/410; 30 [2,3,2,1,5,5,6,6] 1/340; 33 [2,3,2,1,6,6,7,6] 1/282; 34 [2,4,2,1,6,6,7,6] 1/279");
    ("buffers 1 state-space size best",
     "capacities [2,4,2,1,6,6,7,6] evaluations 16 achieved throughput 1/279 it/cycle (transient 8458, period 279 cycles / 1 it)");
    ("buffers 1 state-space size half",
     "capacities [2,2,2,1,4,4,4,4] evaluations 5 achieved throughput 1/538 it/cycle (transient 332, period 538 cycles / 1 it)");
    ("buffers 1 auto trade-off",
     "19 [1,2,2,1,3,3,4,3] 1/666; 23 [2,2,2,1,4,4,4,4] 1/538; 27 [2,2,2,1,5,5,5,5] 1/471; 28 [2,3,2,1,5,5,5,5] 1/410; 30 [2,3,2,1,5,5,6,6] 1/340; 33 [2,3,2,1,6,6,7,6] 1/282; 34 [2,4,2,1,6,6,7,6] 1/279");
    ("buffers 1 auto size best",
     "capacities [2,4,2,1,6,6,7,6] evaluations 16 achieved throughput 1/279 it/cycle (transient 0, period 279 cycles / 1 it)");
    ("buffers 1 auto size half",
     "capacities [2,2,2,1,4,4,4,4] evaluations 5 achieved throughput 1/538 it/cycle (transient 0, period 538 cycles / 1 it)");
    ("buffers 2 state-space trade-off",
     "32 [2,6,3,6,3,12] 1/362");
    ("buffers 2 state-space size best",
     "capacities [2,6,3,6,3,12] evaluations 1 achieved throughput 1/362 it/cycle (transient 42, period 362 cycles / 1 it)");
    ("buffers 2 state-space size half",
     "capacities [2,6,3,6,3,12] evaluations 1 achieved throughput 1/362 it/cycle (transient 42, period 362 cycles / 1 it)");
    ("buffers 2 auto trade-off",
     "32 [2,6,3,6,3,12] 1/362");
    ("buffers 2 auto size best",
     "capacities [2,6,3,6,3,12] evaluations 1 achieved throughput 1/362 it/cycle (transient 0, period 362 cycles / 1 it)");
    ("buffers 2 auto size half",
     "capacities [2,6,3,6,3,12] evaluations 1 achieved throughput 1/362 it/cycle (transient 0, period 362 cycles / 1 it)");
    ("buffers 3 state-space trade-off",
     "13 [1,4,1,1,4,1,1] 1/452");
    ("buffers 3 state-space size best",
     "capacities [1,4,1,1,4,1,1] evaluations 1 achieved throughput 1/452 it/cycle (transient 157, period 452 cycles / 1 it)");
    ("buffers 3 state-space size half",
     "capacities [1,4,1,1,4,1,1] evaluations 1 achieved throughput 1/452 it/cycle (transient 157, period 452 cycles / 1 it)");
    ("buffers 3 auto trade-off",
     "13 [1,4,1,1,4,1,1] 1/452");
    ("buffers 3 auto size best",
     "capacities [1,4,1,1,4,1,1] evaluations 1 achieved throughput 1/452 it/cycle (transient 0, period 452 cycles / 1 it)");
    ("buffers 3 auto size half",
     "capacities [1,4,1,1,4,1,1] evaluations 1 achieved throughput 1/452 it/cycle (transient 0, period 452 cycles / 1 it)");
    ("buffers 4 state-space trade-off",
     "34 [4,1,4,1,4,2,2,4,4,4,4] 1/667");
    ("buffers 4 state-space size best",
     "capacities [4,1,4,1,4,2,2,4,4,4,4] evaluations 1 achieved throughput 1/667 it/cycle (transient 126, period 667 cycles / 1 it)");
    ("buffers 4 state-space size half",
     "capacities [4,1,4,1,4,2,2,4,4,4,4] evaluations 1 achieved throughput 1/667 it/cycle (transient 126, period 667 cycles / 1 it)");
    ("buffers 4 auto trade-off",
     "34 [4,1,4,1,4,2,2,4,4,4,4] 1/667");
    ("buffers 4 auto size best",
     "capacities [4,1,4,1,4,2,2,4,4,4,4] evaluations 1 achieved throughput 1/667 it/cycle (transient 0, period 667 cycles / 1 it)");
    ("buffers 4 auto size half",
     "capacities [4,1,4,1,4,2,2,4,4,4,4] evaluations 1 achieved throughput 1/667 it/cycle (transient 0, period 667 cycles / 1 it)");
    ("buffers 5 state-space trade-off",
     "63 [14,8,2,2,3,2,2,8,10,6,6] 1/448");
    ("buffers 5 state-space size best",
     "capacities [14,8,2,2,3,2,2,8,10,6,6] evaluations 26 achieved throughput 1/448 it/cycle (transient 555, period 448 cycles / 1 it)");
    ("buffers 5 state-space size half",
     "capacities [14,8,2,2,3,2,2,8,10,6,6] evaluations 26 achieved throughput 1/448 it/cycle (transient 555, period 448 cycles / 1 it)");
    ("buffers 5 auto trade-off",
     "63 [14,8,2,2,3,2,2,8,10,6,6] 1/448");
    ("buffers 5 auto size best",
     "capacities [14,8,2,2,3,2,2,8,10,6,6] evaluations 26 achieved throughput 1/448 it/cycle (transient 0, period 448 cycles / 1 it)");
    ("buffers 5 auto size half",
     "capacities [14,8,2,2,3,2,2,8,10,6,6] evaluations 26 achieved throughput 1/448 it/cycle (transient 0, period 448 cycles / 1 it)");
    ("buffers 6 state-space trade-off",
     "24 [4,4,4,4,4,4] 1/302");
    ("buffers 6 state-space size best",
     "capacities [4,4,4,4,4,4] evaluations 1 achieved throughput 1/302 it/cycle (transient 68, period 302 cycles / 1 it)");
    ("buffers 6 state-space size half",
     "capacities [4,4,4,4,4,4] evaluations 1 achieved throughput 1/302 it/cycle (transient 68, period 302 cycles / 1 it)");
    ("buffers 6 auto trade-off",
     "24 [4,4,4,4,4,4] 1/302");
    ("buffers 6 auto size best",
     "capacities [4,4,4,4,4,4] evaluations 1 achieved throughput 1/302 it/cycle (transient 0, period 302 cycles / 1 it)");
    ("buffers 6 auto size half",
     "capacities [4,4,4,4,4,4] evaluations 1 achieved throughput 1/302 it/cycle (transient 0, period 302 cycles / 1 it)");
    ("buffers 7 state-space trade-off",
     "24 [4,1,1,2,4,1,4,3,4] 1/886; 39 [11,1,1,2,6,2,5,7,4] 1/667");
    ("buffers 7 state-space size best",
     "capacities [11,1,1,2,6,2,5,7,4] evaluations 18 achieved throughput 1/667 it/cycle (transient 762, period 667 cycles / 1 it)");
    ("buffers 7 state-space size half",
     "capacities [4,1,1,2,4,1,4,3,4] evaluations 3 achieved throughput 1/886 it/cycle (transient 305, period 886 cycles / 1 it)");
    ("buffers 7 auto trade-off",
     "24 [4,1,1,2,4,1,4,3,4] 1/886; 39 [11,1,1,2,6,2,5,7,4] 1/667");
    ("buffers 7 auto size best",
     "capacities [11,1,1,2,6,2,5,7,4] evaluations 18 achieved throughput 1/667 it/cycle (transient 0, period 667 cycles / 1 it)");
    ("buffers 7 auto size half",
     "capacities [4,1,1,2,4,1,4,3,4] evaluations 3 achieved throughput 1/886 it/cycle (transient 0, period 886 cycles / 1 it)");
    ("buffers 8 state-space trade-off",
     "14 [1,3,4,2,2,2] 1/344; 15 [1,3,4,2,3,2] 1/294");
    ("buffers 8 state-space size best",
     "capacities [1,3,4,2,3,2] evaluations 2 achieved throughput 1/294 it/cycle (transient 108, period 294 cycles / 1 it)");
    ("buffers 8 state-space size half",
     "capacities [1,3,4,2,2,2] evaluations 1 achieved throughput 1/344 it/cycle (transient 50, period 344 cycles / 1 it)");
    ("buffers 8 auto trade-off",
     "14 [1,3,4,2,2,2] 1/344; 15 [1,3,4,2,3,2] 1/294");
    ("buffers 8 auto size best",
     "capacities [1,3,4,2,3,2] evaluations 2 achieved throughput 1/294 it/cycle (transient 0, period 294 cycles / 1 it)");
    ("buffers 8 auto size half",
     "capacities [1,3,4,2,2,2] evaluations 1 achieved throughput 1/344 it/cycle (transient 0, period 344 cycles / 1 it)");
    ("buffers 9 state-space trade-off",
     "37 [2,4,1,4,6,1,3,6,4,3,3] 1/725");
    ("buffers 9 state-space size best",
     "capacities [2,4,1,4,6,1,3,6,4,3,3] evaluations 1 achieved throughput 1/725 it/cycle (transient 675, period 725 cycles / 1 it)");
    ("buffers 9 state-space size half",
     "capacities [2,4,1,4,6,1,3,6,4,3,3] evaluations 1 achieved throughput 1/725 it/cycle (transient 675, period 725 cycles / 1 it)");
    ("buffers 9 auto trade-off",
     "37 [2,4,1,4,6,1,3,6,4,3,3] 1/725");
    ("buffers 9 auto size best",
     "capacities [2,4,1,4,6,1,3,6,4,3,3] evaluations 1 achieved throughput 1/725 it/cycle (transient 0, period 725 cycles / 1 it)");
    ("buffers 9 auto size half",
     "capacities [2,4,1,4,6,1,3,6,4,3,3] evaluations 1 achieved throughput 1/725 it/cycle (transient 0, period 725 cycles / 1 it)");
    ("buffers 10 state-space trade-off",
     "23 [6,3,1,2,4,1,3,3] 1/227; 24 [6,3,1,2,4,1,4,3] 1/218");
    ("buffers 10 state-space size best",
     "capacities [6,3,1,2,4,1,4,3] evaluations 2 achieved throughput 1/218 it/cycle (transient 885, period 218 cycles / 1 it)");
    ("buffers 10 state-space size half",
     "capacities [6,3,1,2,4,1,3,3] evaluations 1 achieved throughput 1/227 it/cycle (transient 685, period 227 cycles / 1 it)");
    ("buffers 10 auto trade-off",
     "23 [6,3,1,2,4,1,3,3] 1/227; 24 [6,3,1,2,4,1,4,3] 1/218");
    ("buffers 10 auto size best",
     "capacities [6,3,1,2,4,1,4,3] evaluations 2 achieved throughput 1/218 it/cycle (transient 0, period 218 cycles / 1 it)");
    ("buffers 10 auto size half",
     "capacities [6,3,1,2,4,1,3,3] evaluations 1 achieved throughput 1/227 it/cycle (transient 0, period 227 cycles / 1 it)");
    ("buffers 11 state-space trade-off",
     "27 [3,3,3,6,6,6] 1/414");
    ("buffers 11 state-space size best",
     "capacities [3,3,3,6,6,6] evaluations 1 achieved throughput 1/414 it/cycle (transient 1147, period 414 cycles / 1 it)");
    ("buffers 11 state-space size half",
     "capacities [3,3,3,6,6,6] evaluations 1 achieved throughput 1/414 it/cycle (transient 1147, period 414 cycles / 1 it)");
    ("buffers 11 auto trade-off",
     "27 [3,3,3,6,6,6] 1/414");
    ("buffers 11 auto size best",
     "capacities [3,3,3,6,6,6] evaluations 1 achieved throughput 1/414 it/cycle (transient 0, period 414 cycles / 1 it)");
    ("buffers 11 auto size half",
     "capacities [3,3,3,6,6,6] evaluations 1 achieved throughput 1/414 it/cycle (transient 0, period 414 cycles / 1 it)");
    ("buffers 12 state-space trade-off",
     "31 [1,4,4,6,4,12] 1/700; 32 [2,4,4,6,4,12] 1/651");
    ("buffers 12 state-space size best",
     "capacities [2,4,4,6,4,12] evaluations 2 achieved throughput 1/651 it/cycle (transient 196, period 651 cycles / 1 it)");
    ("buffers 12 state-space size half",
     "capacities [1,4,4,6,4,12] evaluations 1 achieved throughput 1/700 it/cycle (transient 227, period 700 cycles / 1 it)");
    ("buffers 12 auto trade-off",
     "31 [1,4,4,6,4,12] 1/700; 32 [2,4,4,6,4,12] 1/651");
    ("buffers 12 auto size best",
     "capacities [2,4,4,6,4,12] evaluations 2 achieved throughput 1/651 it/cycle (transient 0, period 651 cycles / 1 it)");
    ("buffers 12 auto size half",
     "capacities [1,4,4,6,4,12] evaluations 1 achieved throughput 1/700 it/cycle (transient 0, period 700 cycles / 1 it)");
    ("buffers 13 state-space trade-off",
     "21 [1,2,1,4,6,3,4] 1/519; 23 [1,2,1,4,6,4,5] 1/465; 25 [1,2,1,4,6,5,6] 1/388; 26 [1,2,1,4,6,5,7] 1/316");
    ("buffers 13 state-space size best",
     "capacities [1,2,1,4,6,5,7] evaluations 6 achieved throughput 1/316 it/cycle (transient 434, period 316 cycles / 1 it)");
    ("buffers 13 state-space size half",
     "capacities [1,2,1,4,6,3,4] evaluations 1 achieved throughput 1/519 it/cycle (transient 23, period 519 cycles / 1 it)");
    ("buffers 13 auto trade-off",
     "21 [1,2,1,4,6,3,4] 1/519; 23 [1,2,1,4,6,4,5] 1/465; 25 [1,2,1,4,6,5,6] 1/388; 26 [1,2,1,4,6,5,7] 1/316");
    ("buffers 13 auto size best",
     "capacities [1,2,1,4,6,5,7] evaluations 6 achieved throughput 1/316 it/cycle (transient 0, period 316 cycles / 1 it)");
    ("buffers 13 auto size half",
     "capacities [1,2,1,4,6,3,4] evaluations 1 achieved throughput 1/519 it/cycle (transient 0, period 519 cycles / 1 it)");
    ("buffers 14 state-space trade-off",
     "17 [1,1,2,1,2,2,2,2,2,2] 1/869");
    ("buffers 14 state-space size best",
     "capacities [1,1,2,1,2,2,2,2,2,2] evaluations 1 achieved throughput 1/869 it/cycle (transient 243, period 869 cycles / 1 it)");
    ("buffers 14 state-space size half",
     "capacities [1,1,2,1,2,2,2,2,2,2] evaluations 1 achieved throughput 1/869 it/cycle (transient 243, period 869 cycles / 1 it)");
    ("buffers 14 auto trade-off",
     "17 [1,1,2,1,2,2,2,2,2,2] 1/869");
    ("buffers 14 auto size best",
     "capacities [1,1,2,1,2,2,2,2,2,2] evaluations 1 achieved throughput 1/869 it/cycle (transient 0, period 869 cycles / 1 it)");
    ("buffers 14 auto size half",
     "capacities [1,1,2,1,2,2,2,2,2,2] evaluations 1 achieved throughput 1/869 it/cycle (transient 0, period 869 cycles / 1 it)");
    ("buffers 15 state-space trade-off",
     "12 [2,2,2,4,2] 1/571; 17 [3,4,3,5,2] 1/513");
    ("buffers 15 state-space size best",
     "capacities [3,4,3,5,2] evaluations 6 achieved throughput 1/513 it/cycle (transient 0, period 513 cycles / 1 it)");
    ("buffers 15 state-space size half",
     "capacities [2,2,2,4,2] evaluations 1 achieved throughput 1/571 it/cycle (transient 0, period 571 cycles / 1 it)");
    ("buffers 15 auto trade-off",
     "12 [2,2,2,4,2] 1/571; 17 [3,4,3,5,2] 1/513");
    ("buffers 15 auto size best",
     "capacities [3,4,3,5,2] evaluations 6 achieved throughput 1/513 it/cycle (transient 0, period 513 cycles / 1 it)");
    ("buffers 15 auto size half",
     "capacities [2,2,2,4,2] evaluations 1 achieved throughput 1/571 it/cycle (transient 0, period 571 cycles / 1 it)");
    ("buffers 16 state-space trade-off",
     "22 [4,4,2,6,6] 1/384");
    ("buffers 16 state-space size best",
     "capacities [4,4,2,6,6] evaluations 1 achieved throughput 1/384 it/cycle (transient 315, period 384 cycles / 1 it)");
    ("buffers 16 state-space size half",
     "capacities [4,4,2,6,6] evaluations 1 achieved throughput 1/384 it/cycle (transient 315, period 384 cycles / 1 it)");
    ("buffers 16 auto trade-off",
     "22 [4,4,2,6,6] 1/384");
    ("buffers 16 auto size best",
     "capacities [4,4,2,6,6] evaluations 1 achieved throughput 1/384 it/cycle (transient 0, period 384 cycles / 1 it)");
    ("buffers 16 auto size half",
     "capacities [4,4,2,6,6] evaluations 1 achieved throughput 1/384 it/cycle (transient 0, period 384 cycles / 1 it)");
    ("buffers 17 state-space trade-off",
     "32 [3,4,2,2,4,1,4,4,2,6] 1/504");
    ("buffers 17 state-space size best",
     "capacities [3,4,2,2,4,1,4,4,2,6] evaluations 1 achieved throughput 1/504 it/cycle (transient 399, period 504 cycles / 1 it)");
    ("buffers 17 state-space size half",
     "capacities [3,4,2,2,4,1,4,4,2,6] evaluations 1 achieved throughput 1/504 it/cycle (transient 399, period 504 cycles / 1 it)");
    ("buffers 17 auto trade-off",
     "32 [3,4,2,2,4,1,4,4,2,6] 1/504");
    ("buffers 17 auto size best",
     "capacities [3,4,2,2,4,1,4,4,2,6] evaluations 1 achieved throughput 1/504 it/cycle (transient 0, period 504 cycles / 1 it)");
    ("buffers 17 auto size half",
     "capacities [3,4,2,2,4,1,4,4,2,6] evaluations 1 achieved throughput 1/504 it/cycle (transient 0, period 504 cycles / 1 it)");
    ("buffers 18 state-space trade-off",
     "26 [2,2,4,4,4,2,4,4] 1/253");
    ("buffers 18 state-space size best",
     "capacities [2,2,4,4,4,2,4,4] evaluations 1 achieved throughput 1/253 it/cycle (transient 0, period 253 cycles / 1 it)");
    ("buffers 18 state-space size half",
     "capacities [2,2,4,4,4,2,4,4] evaluations 1 achieved throughput 1/253 it/cycle (transient 0, period 253 cycles / 1 it)");
    ("buffers 18 auto trade-off",
     "26 [2,2,4,4,4,2,4,4] 1/253");
    ("buffers 18 auto size best",
     "capacities [2,2,4,4,4,2,4,4] evaluations 1 achieved throughput 1/253 it/cycle (transient 0, period 253 cycles / 1 it)");
    ("buffers 18 auto size half",
     "capacities [2,2,4,4,4,2,4,4] evaluations 1 achieved throughput 1/253 it/cycle (transient 0, period 253 cycles / 1 it)");
    ("buffers 19 state-space trade-off",
     "19 [4,3,4,2,2,1,1,2] 1/284");
    ("buffers 19 state-space size best",
     "capacities [4,3,4,2,2,1,1,2] evaluations 1 achieved throughput 1/284 it/cycle (transient 691, period 284 cycles / 1 it)");
    ("buffers 19 state-space size half",
     "capacities [4,3,4,2,2,1,1,2] evaluations 1 achieved throughput 1/284 it/cycle (transient 691, period 284 cycles / 1 it)");
    ("buffers 19 auto trade-off",
     "19 [4,3,4,2,2,1,1,2] 1/284");
    ("buffers 19 auto size best",
     "capacities [4,3,4,2,2,1,1,2] evaluations 1 achieved throughput 1/284 it/cycle (transient 0, period 284 cycles / 1 it)");
    ("buffers 19 auto size half",
     "capacities [4,3,4,2,2,1,1,2] evaluations 1 achieved throughput 1/284 it/cycle (transient 0, period 284 cycles / 1 it)");
    ("buffers 20 state-space trade-off",
     "47 [6,6,6,2,2,6,2,12,5] 1/814; 49 [6,6,6,2,2,6,2,14,5] 1/738; 50 [6,6,6,2,2,6,2,15,5] 1/718; 52 [6,6,6,2,2,7,2,16,5] 1/645; 56 [6,6,7,2,3,7,3,17,5] 1/642; 58 [6,6,7,2,3,8,3,18,5] 1/583; 62 [7,6,8,2,3,8,3,20,5] 1/546; 63 [7,6,8,2,3,9,3,20,5] 1/504; 73 [7,10,9,2,3,10,3,24,5] 1/478");
    ("buffers 20 state-space size best",
     "capacities [7,10,9,2,3,10,3,24,5] evaluations 36 achieved throughput 1/478 it/cycle (transient 430, period 478 cycles / 1 it)");
    ("buffers 20 state-space size half",
     "capacities [6,6,6,2,2,6,2,12,5] evaluations 10 achieved throughput 1/814 it/cycle (transient 191, period 814 cycles / 1 it)");
    ("buffers 20 auto trade-off",
     "47 [6,6,6,2,2,6,2,12,5] 1/814; 49 [6,6,6,2,2,6,2,14,5] 1/738; 50 [6,6,6,2,2,6,2,15,5] 1/718; 52 [6,6,6,2,2,7,2,16,5] 1/645; 56 [6,6,7,2,3,7,3,17,5] 1/642; 58 [6,6,7,2,3,8,3,18,5] 1/583; 62 [7,6,8,2,3,8,3,20,5] 1/546; 63 [7,6,8,2,3,9,3,20,5] 1/504; 73 [7,10,9,2,3,10,3,24,5] 1/478");
    ("buffers 20 auto size best",
     "capacities [7,10,9,2,3,10,3,24,5] evaluations 36 achieved throughput 1/478 it/cycle (transient 0, period 478 cycles / 1 it)");
    ("buffers 20 auto size half",
     "capacities [6,6,6,2,2,6,2,12,5] evaluations 10 achieved throughput 1/814 it/cycle (transient 0, period 814 cycles / 1 it)");
    ("buffers 21 state-space trade-off",
     "27 [1,4,1,4,4,4,4,1,4] 1/571; 31 [2,4,1,4,4,4,4,2,6] 1/463");
    ("buffers 21 state-space size best",
     "capacities [2,4,1,4,4,4,4,2,6] evaluations 5 achieved throughput 1/463 it/cycle (transient 214, period 463 cycles / 1 it)");
    ("buffers 21 state-space size half",
     "capacities [1,4,1,4,4,4,4,1,4] evaluations 1 achieved throughput 1/571 it/cycle (transient 250, period 571 cycles / 1 it)");
    ("buffers 21 auto trade-off",
     "27 [1,4,1,4,4,4,4,1,4] 1/571; 31 [2,4,1,4,4,4,4,2,6] 1/463");
    ("buffers 21 auto size best",
     "capacities [2,4,1,4,4,4,4,2,6] evaluations 5 achieved throughput 1/463 it/cycle (transient 0, period 463 cycles / 1 it)");
    ("buffers 21 auto size half",
     "capacities [1,4,1,4,4,4,4,1,4] evaluations 1 achieved throughput 1/571 it/cycle (transient 0, period 571 cycles / 1 it)");
    ("buffers 22 state-space trade-off",
     "30 [2,1,2,6,1,1,1,1,12,3] 1/315");
    ("buffers 22 state-space size best",
     "capacities [2,1,2,6,1,1,1,1,12,3] evaluations 1 achieved throughput 1/315 it/cycle (transient 326, period 315 cycles / 1 it)");
    ("buffers 22 state-space size half",
     "capacities [2,1,2,6,1,1,1,1,12,3] evaluations 1 achieved throughput 1/315 it/cycle (transient 326, period 315 cycles / 1 it)");
    ("buffers 22 auto trade-off",
     "30 [2,1,2,6,1,1,1,1,12,3] 1/315");
    ("buffers 22 auto size best",
     "capacities [2,1,2,6,1,1,1,1,12,3] evaluations 1 achieved throughput 1/315 it/cycle (transient 0, period 315 cycles / 1 it)");
    ("buffers 22 auto size half",
     "capacities [2,1,2,6,1,1,1,1,12,3] evaluations 1 achieved throughput 1/315 it/cycle (transient 0, period 315 cycles / 1 it)");
    ("buffers 23 state-space trade-off",
     "21 [1,2,2,4,6,1,2,3] 1/408; 27 [2,3,2,5,7,2,2,4] 1/316");
    ("buffers 23 state-space size best",
     "capacities [2,3,2,5,7,2,2,4] evaluations 7 achieved throughput 1/316 it/cycle (transient 387, period 316 cycles / 1 it)");
    ("buffers 23 state-space size half",
     "capacities [1,2,2,4,6,1,2,3] evaluations 1 achieved throughput 1/408 it/cycle (transient 408, period 408 cycles / 1 it)");
    ("buffers 23 auto trade-off",
     "21 [1,2,2,4,6,1,2,3] 1/408; 27 [2,3,2,5,7,2,2,4] 1/316");
    ("buffers 23 auto size best",
     "capacities [2,3,2,5,7,2,2,4] evaluations 7 achieved throughput 1/316 it/cycle (transient 0, period 316 cycles / 1 it)");
    ("buffers 23 auto size half",
     "capacities [1,2,2,4,6,1,2,3] evaluations 1 achieved throughput 1/408 it/cycle (transient 0, period 408 cycles / 1 it)");
    ("buffers 24 state-space trade-off",
     "25 [2,1,6,4,1,4,3,4] 1/747");
    ("buffers 24 state-space size best",
     "capacities [2,1,6,4,1,4,3,4] evaluations 1 achieved throughput 1/747 it/cycle (transient 39, period 747 cycles / 1 it)");
    ("buffers 24 state-space size half",
     "capacities [2,1,6,4,1,4,3,4] evaluations 1 achieved throughput 1/747 it/cycle (transient 39, period 747 cycles / 1 it)");
    ("buffers 24 auto trade-off",
     "25 [2,1,6,4,1,4,3,4] 1/747");
    ("buffers 24 auto size best",
     "capacities [2,1,6,4,1,4,3,4] evaluations 1 achieved throughput 1/747 it/cycle (transient 0, period 747 cycles / 1 it)");
    ("buffers 24 auto size half",
     "capacities [2,1,6,4,1,4,3,4] evaluations 1 achieved throughput 1/747 it/cycle (transient 0, period 747 cycles / 1 it)");
    ("buffers 25 state-space trade-off",
     "25 [3,2,3,4,3,2,2,3,3] 1/431");
    ("buffers 25 state-space size best",
     "capacities [3,2,3,4,3,2,2,3,3] evaluations 7 achieved throughput 1/431 it/cycle (transient 294, period 431 cycles / 1 it)");
    ("buffers 25 state-space size half",
     "capacities [3,2,3,4,3,2,2,3,3] evaluations 7 achieved throughput 1/431 it/cycle (transient 294, period 431 cycles / 1 it)");
    ("buffers 25 auto trade-off",
     "25 [3,2,3,4,3,2,2,3,3] 1/431");
    ("buffers 25 auto size best",
     "capacities [3,2,3,4,3,2,2,3,3] evaluations 7 achieved throughput 1/431 it/cycle (transient 0, period 431 cycles / 1 it)");
    ("buffers 25 auto size half",
     "capacities [3,2,3,4,3,2,2,3,3] evaluations 7 achieved throughput 1/431 it/cycle (transient 0, period 431 cycles / 1 it)");
    ("buffers 26 state-space trade-off",
     "29 [2,1,4,6,6,1,3,3,2,1] 1/397");
    ("buffers 26 state-space size best",
     "capacities [2,1,4,6,6,1,3,3,2,1] evaluations 1 achieved throughput 1/397 it/cycle (transient 197, period 397 cycles / 1 it)");
    ("buffers 26 state-space size half",
     "capacities [2,1,4,6,6,1,3,3,2,1] evaluations 1 achieved throughput 1/397 it/cycle (transient 197, period 397 cycles / 1 it)");
    ("buffers 26 auto trade-off",
     "29 [2,1,4,6,6,1,3,3,2,1] 1/397");
    ("buffers 26 auto size best",
     "capacities [2,1,4,6,6,1,3,3,2,1] evaluations 1 achieved throughput 1/397 it/cycle (transient 0, period 397 cycles / 1 it)");
    ("buffers 26 auto size half",
     "capacities [2,1,4,6,6,1,3,3,2,1] evaluations 1 achieved throughput 1/397 it/cycle (transient 0, period 397 cycles / 1 it)");
    ("buffers 27 state-space trade-off",
     "12 [1,1,2,4,1,2,1] 1/423; 14 [1,1,3,4,1,2,2] 1/419");
    ("buffers 27 state-space size best",
     "capacities [1,1,3,4,1,2,2] evaluations 3 achieved throughput 1/419 it/cycle (transient 157, period 419 cycles / 1 it)");
    ("buffers 27 state-space size half",
     "capacities [1,1,2,4,1,2,1] evaluations 1 achieved throughput 1/423 it/cycle (transient 157, period 423 cycles / 1 it)");
    ("buffers 27 auto trade-off",
     "12 [1,1,2,4,1,2,1] 1/423; 14 [1,1,3,4,1,2,2] 1/419");
    ("buffers 27 auto size best",
     "capacities [1,1,3,4,1,2,2] evaluations 3 achieved throughput 1/419 it/cycle (transient 0, period 419 cycles / 1 it)");
    ("buffers 27 auto size half",
     "capacities [1,1,2,4,1,2,1] evaluations 1 achieved throughput 1/423 it/cycle (transient 0, period 423 cycles / 1 it)");
    ("buffers 28 state-space trade-off",
     "25 [6,3,2,1,4,1,4,4] 1/521; 30 [6,3,2,2,5,1,5,6] 1/440; 35 [8,3,3,2,5,2,5,7] 1/426; 36 [8,3,3,2,5,2,6,7] 1/338; 38 [9,3,3,2,6,2,6,7] 1/331; 40 [9,3,3,3,6,2,7,7] 1/324");
    ("buffers 28 state-space size best",
     "capacities [9,3,3,3,6,2,7,7] evaluations 18 achieved throughput 1/324 it/cycle (transient 338, period 324 cycles / 1 it)");
    ("buffers 28 state-space size half",
     "capacities [6,3,2,1,4,1,4,4] evaluations 3 achieved throughput 1/521 it/cycle (transient 257, period 521 cycles / 1 it)");
    ("buffers 28 auto trade-off",
     "25 [6,3,2,1,4,1,4,4] 1/521; 30 [6,3,2,2,5,1,5,6] 1/440; 35 [8,3,3,2,5,2,5,7] 1/426; 36 [8,3,3,2,5,2,6,7] 1/338; 38 [9,3,3,2,6,2,6,7] 1/331; 40 [9,3,3,3,6,2,7,7] 1/324");
    ("buffers 28 auto size best",
     "capacities [9,3,3,3,6,2,7,7] evaluations 18 achieved throughput 1/324 it/cycle (transient 0, period 324 cycles / 1 it)");
    ("buffers 28 auto size half",
     "capacities [6,3,2,1,4,1,4,4] evaluations 3 achieved throughput 1/521 it/cycle (transient 0, period 521 cycles / 1 it)");
    ("buffers 29 state-space trade-off",
     "19 [2,4,1,2,2,4,4] 1/212; 21 [2,4,1,2,3,4,5] 1/200; 23 [3,4,1,3,3,4,5] 1/144; 25 [4,4,1,4,3,4,5] 1/123; 30 [5,5,1,5,4,5,5] 1/112");
    ("buffers 29 state-space size best",
     "capacities [5,5,1,5,4,5,5] evaluations 12 achieved throughput 1/112 it/cycle (transient 72, period 112 cycles / 1 it)");
    ("buffers 29 state-space size half",
     "capacities [2,4,1,2,2,4,4] evaluations 1 achieved throughput 1/212 it/cycle (transient 0, period 212 cycles / 1 it)");
    ("buffers 29 auto trade-off",
     "19 [2,4,1,2,2,4,4] 1/212; 21 [2,4,1,2,3,4,5] 1/200; 23 [3,4,1,3,3,4,5] 1/144; 25 [4,4,1,4,3,4,5] 1/123; 30 [5,5,1,5,4,5,5] 1/112");
    ("buffers 29 auto size best",
     "capacities [5,5,1,5,4,5,5] evaluations 12 achieved throughput 1/112 it/cycle (transient 0, period 112 cycles / 1 it)");
    ("buffers 29 auto size half",
     "capacities [2,4,1,2,2,4,4] evaluations 1 achieved throughput 1/212 it/cycle (transient 0, period 212 cycles / 1 it)");
    ("buffers 30 state-space trade-off",
     "12 [3,2,1,6] 1/287; 14 [3,2,1,8] 1/222; 18 [4,4,2,8] 1/218; 20 [4,4,2,10] 1/207");
    ("buffers 30 state-space size best",
     "capacities [4,4,2,10] evaluations 11 achieved throughput 1/207 it/cycle (transient 138, period 207 cycles / 1 it)");
    ("buffers 30 state-space size half",
     "capacities [3,2,1,6] evaluations 3 achieved throughput 1/287 it/cycle (transient 69, period 287 cycles / 1 it)");
    ("buffers 30 auto trade-off",
     "12 [3,2,1,6] 1/287; 14 [3,2,1,8] 1/222; 18 [4,4,2,8] 1/218; 20 [4,4,2,10] 1/207");
    ("buffers 30 auto size best",
     "capacities [4,4,2,10] evaluations 11 achieved throughput 1/207 it/cycle (transient 0, period 207 cycles / 1 it)");
    ("buffers 30 auto size half",
     "capacities [3,2,1,6] evaluations 3 achieved throughput 1/287 it/cycle (transient 0, period 287 cycles / 1 it)");
    ("buffers 31 state-space trade-off",
     "10 [3,1,3,3] 1/306; 12 [4,1,3,4] 1/276");
    ("buffers 31 state-space size best",
     "capacities [4,1,3,4] evaluations 3 achieved throughput 1/276 it/cycle (transient 132, period 276 cycles / 1 it)");
    ("buffers 31 state-space size half",
     "capacities [3,1,3,3] evaluations 1 achieved throughput 1/306 it/cycle (transient 132, period 306 cycles / 1 it)");
    ("buffers 31 auto trade-off",
     "10 [3,1,3,3] 1/306; 12 [4,1,3,4] 1/276");
    ("buffers 31 auto size best",
     "capacities [4,1,3,4] evaluations 3 achieved throughput 1/276 it/cycle (transient 0, period 276 cycles / 1 it)");
    ("buffers 31 auto size half",
     "capacities [3,1,3,3] evaluations 1 achieved throughput 1/306 it/cycle (transient 0, period 306 cycles / 1 it)");
    ("buffers 32 state-space trade-off",
     "16 [3,4,1,4,4] 1/481");
    ("buffers 32 state-space size best",
     "capacities [3,4,1,4,4] evaluations 1 achieved throughput 1/481 it/cycle (transient 123, period 481 cycles / 1 it)");
    ("buffers 32 state-space size half",
     "capacities [3,4,1,4,4] evaluations 1 achieved throughput 1/481 it/cycle (transient 123, period 481 cycles / 1 it)");
    ("buffers 32 auto trade-off",
     "16 [3,4,1,4,4] 1/481");
    ("buffers 32 auto size best",
     "capacities [3,4,1,4,4] evaluations 1 achieved throughput 1/481 it/cycle (transient 0, period 481 cycles / 1 it)");
    ("buffers 32 auto size half",
     "capacities [3,4,1,4,4] evaluations 1 achieved throughput 1/481 it/cycle (transient 0, period 481 cycles / 1 it)");
    ("buffers 33 state-space trade-off",
     "29 [2,4,4,1,4,6,3,4,1] 1/691; 30 [2,4,4,1,4,6,4,4,1] 1/561");
    ("buffers 33 state-space size best",
     "capacities [2,4,4,1,4,6,4,4,1] evaluations 2 achieved throughput 1/561 it/cycle (transient 804, period 561 cycles / 1 it)");
    ("buffers 33 state-space size half",
     "capacities [2,4,4,1,4,6,3,4,1] evaluations 1 achieved throughput 1/691 it/cycle (transient 439, period 691 cycles / 1 it)");
    ("buffers 33 auto trade-off",
     "29 [2,4,4,1,4,6,3,4,1] 1/691; 30 [2,4,4,1,4,6,4,4,1] 1/561");
    ("buffers 33 auto size best",
     "capacities [2,4,4,1,4,6,4,4,1] evaluations 2 achieved throughput 1/561 it/cycle (transient 0, period 561 cycles / 1 it)");
    ("buffers 33 auto size half",
     "capacities [2,4,4,1,4,6,3,4,1] evaluations 1 achieved throughput 1/691 it/cycle (transient 0, period 691 cycles / 1 it)");
    ("buffers 34 state-space trade-off",
     "36 [1,4,6,1,4,2,6,6,2,4] 1/726; 37 [1,4,6,1,4,2,6,6,3,4] 1/567; 44 [1,7,6,2,4,2,6,6,6,4] 1/556");
    ("buffers 34 state-space size best",
     "capacities [1,7,6,2,4,2,6,6,6,4] evaluations 9 achieved throughput 1/556 it/cycle (transient 620, period 556 cycles / 1 it)");
    ("buffers 34 state-space size half",
     "capacities [1,4,6,1,4,2,6,6,2,4] evaluations 1 achieved throughput 1/726 it/cycle (transient 431, period 726 cycles / 1 it)");
    ("buffers 34 auto trade-off",
     "36 [1,4,6,1,4,2,6,6,2,4] 1/726; 37 [1,4,6,1,4,2,6,6,3,4] 1/567; 44 [1,7,6,2,4,2,6,6,6,4] 1/556");
    ("buffers 34 auto size best",
     "capacities [1,7,6,2,4,2,6,6,6,4] evaluations 9 achieved throughput 1/556 it/cycle (transient 0, period 556 cycles / 1 it)");
    ("buffers 34 auto size half",
     "capacities [1,4,6,1,4,2,6,6,2,4] evaluations 1 achieved throughput 1/726 it/cycle (transient 0, period 726 cycles / 1 it)");
    ("buffers 35 state-space trade-off",
     "24 [2,6,1,6,2,4,3] 1/525; 25 [2,6,1,6,2,5,3] 1/478; 26 [2,6,1,6,2,6,3] 1/452; 28 [3,7,1,6,2,6,3] 1/435");
    ("buffers 35 state-space size best",
     "capacities [3,7,1,6,2,6,3] evaluations 5 achieved throughput 1/435 it/cycle (transient 268, period 435 cycles / 1 it)");
    ("buffers 35 state-space size half",
     "capacities [2,6,1,6,2,4,3] evaluations 1 achieved throughput 1/525 it/cycle (transient 209, period 525 cycles / 1 it)");
    ("buffers 35 auto trade-off",
     "24 [2,6,1,6,2,4,3] 1/525; 25 [2,6,1,6,2,5,3] 1/478; 26 [2,6,1,6,2,6,3] 1/452; 28 [3,7,1,6,2,6,3] 1/435");
    ("buffers 35 auto size best",
     "capacities [3,7,1,6,2,6,3] evaluations 5 achieved throughput 1/435 it/cycle (transient 0, period 435 cycles / 1 it)");
    ("buffers 35 auto size half",
     "capacities [2,6,1,6,2,4,3] evaluations 1 achieved throughput 1/525 it/cycle (transient 0, period 525 cycles / 1 it)");
    ("buffers 36 state-space trade-off",
     "25 [1,3,6,6,3,3,3] 1/605");
    ("buffers 36 state-space size best",
     "capacities [1,3,6,6,3,3,3] evaluations 1 achieved throughput 1/605 it/cycle (transient 86, period 605 cycles / 1 it)");
    ("buffers 36 state-space size half",
     "capacities [1,3,6,6,3,3,3] evaluations 1 achieved throughput 1/605 it/cycle (transient 86, period 605 cycles / 1 it)");
    ("buffers 36 auto trade-off",
     "25 [1,3,6,6,3,3,3] 1/605");
    ("buffers 36 auto size best",
     "capacities [1,3,6,6,3,3,3] evaluations 1 achieved throughput 1/605 it/cycle (transient 0, period 605 cycles / 1 it)");
    ("buffers 36 auto size half",
     "capacities [1,3,6,6,3,3,3] evaluations 1 achieved throughput 1/605 it/cycle (transient 0, period 605 cycles / 1 it)");
    ("buffers 37 state-space trade-off",
     "19 [2,4,4,6,1,1,1] 1/497; 51 [33,4,5,6,1,1,1] 1/495");
    ("buffers 37 state-space size best",
     "capacities [33,4,5,6,1,1,1] evaluations 33 achieved throughput 1/495 it/cycle (transient 1104, period 495 cycles / 1 it)");
    ("buffers 37 state-space size half",
     "capacities [2,4,4,6,1,1,1] evaluations 1 achieved throughput 1/497 it/cycle (transient 543, period 497 cycles / 1 it)");
    ("buffers 37 auto trade-off",
     "19 [2,4,4,6,1,1,1] 1/497; 51 [33,4,5,6,1,1,1] 1/495");
    ("buffers 37 auto size best",
     "capacities [33,4,5,6,1,1,1] evaluations 33 achieved throughput 1/495 it/cycle (transient 0, period 495 cycles / 1 it)");
    ("buffers 37 auto size half",
     "capacities [2,4,4,6,1,1,1] evaluations 1 achieved throughput 1/497 it/cycle (transient 0, period 497 cycles / 1 it)");
    ("buffers 38 state-space trade-off",
     "24 [2,4,6,2,6,4] 1/627; 28 [2,5,7,2,7,5] 1/529; 29 [3,5,7,2,7,5] 1/472; 31 [3,6,7,2,7,6] 1/392");
    ("buffers 38 state-space size best",
     "capacities [3,6,7,2,7,6] evaluations 10 achieved throughput 1/392 it/cycle (transient 392, period 392 cycles / 1 it)");
    ("buffers 38 state-space size half",
     "capacities [2,4,6,2,6,4] evaluations 3 achieved throughput 1/627 it/cycle (transient 196, period 627 cycles / 1 it)");
    ("buffers 38 auto trade-off",
     "24 [2,4,6,2,6,4] 1/627; 28 [2,5,7,2,7,5] 1/529; 29 [3,5,7,2,7,5] 1/472; 31 [3,6,7,2,7,6] 1/392");
    ("buffers 38 auto size best",
     "capacities [3,6,7,2,7,6] evaluations 10 achieved throughput 1/392 it/cycle (transient 0, period 392 cycles / 1 it)");
    ("buffers 38 auto size half",
     "capacities [2,4,6,2,6,4] evaluations 3 achieved throughput 1/627 it/cycle (transient 0, period 627 cycles / 1 it)");
    ("buffers 39 state-space trade-off",
     "39 [4,6,6,2,1,6,4,6,4] 1/517; 41 [4,6,6,2,1,6,5,6,5] 1/476; 42 [4,6,6,2,1,6,6,6,5] 1/407");
    ("buffers 39 state-space size best",
     "capacities [4,6,6,2,1,6,6,6,5] evaluations 4 achieved throughput 1/407 it/cycle (transient 191, period 407 cycles / 1 it)");
    ("buffers 39 state-space size half",
     "capacities [4,6,6,2,1,6,4,6,4] evaluations 1 achieved throughput 1/517 it/cycle (transient 78, period 517 cycles / 1 it)");
    ("buffers 39 auto trade-off",
     "39 [4,6,6,2,1,6,4,6,4] 1/517; 41 [4,6,6,2,1,6,5,6,5] 1/476; 42 [4,6,6,2,1,6,6,6,5] 1/407");
    ("buffers 39 auto size best",
     "capacities [4,6,6,2,1,6,6,6,5] evaluations 4 achieved throughput 1/407 it/cycle (transient 0, period 407 cycles / 1 it)");
    ("buffers 39 auto size half",
     "capacities [4,6,6,2,1,6,4,6,4] evaluations 1 achieved throughput 1/517 it/cycle (transient 0, period 517 cycles / 1 it)");
    ("buffers 40 state-space trade-off",
     "18 [4,1,4,2,2,1,4] 1/531; 19 [4,2,4,2,2,1,4] 1/417; 21 [5,2,4,3,2,1,4] 1/356");
    ("buffers 40 state-space size best",
     "capacities [5,2,4,3,2,1,4] evaluations 4 achieved throughput 1/356 it/cycle (transient 2873, period 356 cycles / 1 it)");
    ("buffers 40 state-space size half",
     "capacities [4,1,4,2,2,1,4] evaluations 1 achieved throughput 1/531 it/cycle (transient 463, period 531 cycles / 1 it)");
    ("buffers 40 auto trade-off",
     "18 [4,1,4,2,2,1,4] 1/531; 19 [4,2,4,2,2,1,4] 1/417; 21 [5,2,4,3,2,1,4] 1/356");
    ("buffers 40 auto size best",
     "capacities [5,2,4,3,2,1,4] evaluations 4 achieved throughput 1/356 it/cycle (transient 0, period 356 cycles / 1 it)");
    ("buffers 40 auto size half",
     "capacities [4,1,4,2,2,1,4] evaluations 1 achieved throughput 1/531 it/cycle (transient 0, period 531 cycles / 1 it)");
  ]

