"""Pipe driver: SMT-LIB2 on stdin, verdict and model on stdout."""

import sys

from . import solve_text


def main() -> int:
    if len(sys.argv) > 1:
        with open(sys.argv[1], "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    sys.stdout.write(solve_text(text))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
