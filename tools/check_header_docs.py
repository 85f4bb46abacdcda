#!/usr/bin/env python3
"""Doc-comment gate for public core headers.

Every public type (struct / class / enum) and every public function
declaration in the given headers must carry a doc comment: a `///` (or
`//`) line directly above it, or a trailing comment on the same line. CI
runs this over the core API headers so new public surface cannot land
undocumented:

  python3 tools/check_header_docs.py src/core/deal_runtime.h \\
      src/core/traffic_engine.h src/core/admission.h src/core/broker_pool.h

Deliberately pragmatic (regex, not a C++ parser). Skipped, by policy:
  - data members (only types and functions are gated),
  - constructors / destructors / `= default` / `= delete`,
  - `override` declarations (they inherit the base's doc),
  - trivial one-line inline accessors (declaration and `{ ... }` body on
    one line),
  - forward declarations (`class Foo;`),
  - continuation lines of a multi-line declaration,
  - annotation macros (`XDEAL_DETERMINISTIC`) / attributes / template
    heads on their own line between the doc comment and the declaration.

Exit status 1 lists every undocumented declaration as file:line.
"""

import re
import sys

TYPE_RE = re.compile(r"^\s*(template\s*<[^>]*>\s*)?"
                     r"(struct|class|enum\s+class|enum)\s+(\w+)")
# A function-ish line: optional qualifiers, a return type, a name, an
# opening paren. Conservative on purpose — misses exotic shapes rather
# than false-positive on expressions.
FUNC_RE = re.compile(r"^\s*(virtual\s+|static\s+|explicit\s+|inline\s+|"
                     r"constexpr\s+|friend\s+)*"
                     r"[\w:<>,&*~\[\]\s]+?[\s&*](\w+|operator..?)\s*\(")
CONTROL_KEYWORDS = ("if", "for", "while", "switch", "return", "sizeof",
                    "assert", "static_assert", "catch")


def is_comment(line):
    stripped = line.strip()
    return stripped.startswith("//") or stripped.startswith("*") or \
        stripped.startswith("/*")


def public_regions(lines):
    """Yields, per line index, whether that line is at public scope:
    namespace scope, a struct body, or a class body after `public:`.
    Plain blocks (multi-line inline function bodies) are NOT public scope —
    local declarations inside them are statements, not API surface."""
    # Stack of (kind, public?) per brace scope; namespace/global = public.
    stack = []
    public = []
    pending = None  # type keyword seen, waiting for its '{'
    for line in lines:
        code = re.sub(r"//.*", "", line)
        m = TYPE_RE.match(code)
        if m and not code.rstrip().endswith(";"):
            pending = "struct" if m.group(2) != "class" else "class"
        is_namespace = re.match(r"^\s*(inline\s+)?namespace\b", code)
        if re.match(r"^\s*(public|protected|private)\s*:", code):
            if stack and stack[-1][0] == "class-like":
                stack[-1] = ("class-like",
                             code.strip().startswith("public"))
        public.append(not stack or all(p for _, p in stack))
        for ch in code:
            if ch == "{":
                if pending is not None:
                    stack.append(("class-like", pending == "struct"))
                    pending = None
                elif is_namespace:
                    stack.append(("namespace",
                                  stack[-1][1] if stack else True))
                    is_namespace = None  # only the first '{' on the line
                else:
                    stack.append(("block", False))
            elif ch == "}":
                if stack:
                    stack.pop()
    return public


def check_file(path):
    with open(path) as f:
        lines = f.read().splitlines()
    public = public_regions(lines)
    failures = []

    for i, line in enumerate(lines):
        if not public[i]:
            continue
        code = re.sub(r"//.*", "", line).rstrip()
        if not code.strip() or is_comment(line):
            continue

        # Continuation of a multi-line declaration? Skip.
        prev_code = ""
        for j in range(i - 1, -1, -1):
            candidate = re.sub(r"//.*", "", lines[j]).rstrip()
            if candidate.strip():
                prev_code = candidate
                break
        if prev_code.endswith((",", "(", "&&", "||", "+", "=", ":")):
            continue
        if code.strip().startswith(":"):  # constructor initializer list
            continue

        # Join a multi-line declaration up to its terminator so qualifiers
        # on later lines (`override`, `= 0`, `= delete`) are visible.
        decl = code
        k = i
        while not decl.rstrip().endswith((";", "{", "}")) and \
                k + 1 < len(lines) and k - i < 6:
            k += 1
            decl += " " + re.sub(r"//.*", "", lines[k]).strip()

        is_type = False
        m = TYPE_RE.match(code)
        if m and not code.endswith(";"):  # forward declarations are free
            is_type = True
        name = m.group(3) if m else None

        is_func = False
        if not is_type:
            fm = FUNC_RE.match(code)
            if fm and not any(
                    re.match(rf"^\s*{kw}\b", code.strip())
                    for kw in CONTROL_KEYWORDS):
                fname = fm.group(2)
                is_func = True
                if "override" in decl or "= default" in decl or \
                        "= delete" in decl:
                    is_func = False       # doc inherited / generated
                elif fname.startswith("~"):
                    is_func = False       # destructor
                elif re.search(r"\{.*\}", code) or code.endswith("}"):
                    is_func = False       # one-line inline accessor
                elif re.match(r"^\s*" + re.escape(fname) + r"\s*\(", code.strip()):
                    is_func = False       # constructor (name == type name)
                name = fname

        if not (is_type or is_func):
            continue

        # Documented? Trailing comment, or the previous non-blank line is
        # a comment.
        if "//" in line:
            continue
        documented = False
        for j in range(i - 1, -1, -1):
            if not lines[j].strip():
                break
            # Annotation macros / attributes / template heads on their own
            # line sit between the doc comment and the declaration — look
            # through them.
            if re.match(r"^\s*(XDEAL_\w+|\[\[.*\]\]|template\s*<.*>)\s*$",
                        lines[j]):
                continue
            if is_comment(lines[j]):
                documented = True
            break
        if not documented:
            failures.append((i + 1, name, line.strip()))
    return failures


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    total = 0
    for path in sys.argv[1:]:
        for lineno, name, text in check_file(path):
            print(f"{path}:{lineno}: undocumented public declaration "
                  f"'{name}': {text}")
            total += 1
    if total:
        print(f"\nFAILED: {total} undocumented public declaration(s). "
              "Add a /// summary line directly above each.")
        return 1
    print(f"OK: all public declarations documented in "
          f"{len(sys.argv) - 1} header(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
