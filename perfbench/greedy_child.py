"""External child for the stdio line protocol, standard library only.

It plays the greedy rule: keep assigning subsets to the current partition
until their union covers the universe, then open the next id.  That is the
rule of ``dscp.online.GreedyCover``, so the benchmark can require the two
allocations to hash alike and attribute any time difference to the wire.

Run as ``python3 greedy_child.py``; it reads ``INIT``/``SUBSET``/``END``
lines on stdin and answers each ``SUBSET`` with one ``ASSIGN`` line.
"""

import sys


def main() -> None:
    n = None
    covered: set[int] = set()
    current = 0
    out = sys.stdout
    for line in sys.stdin:
        words = line.split()
        if not words:
            continue
        if words[0] == "INIT":
            n = int(words[1])
        elif words[0] == "SUBSET":
            covered.update(map(int, words[1:]))
            out.write(f"ASSIGN {current}\n")
            out.flush()
            if len(covered) == n:
                current += 1
                covered = set()
        elif words[0] == "END":
            break


if __name__ == "__main__":
    main()
