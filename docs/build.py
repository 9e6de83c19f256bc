#!/usr/bin/env python
"""Zero-dependency documentation builder for swift-repro.

Neither mkdocs nor sphinx is available in the pinned offline toolchain
(NumPy-only), so the docs site is built by this script: a small
markdown-subset renderer plus an API-reference generator driven by
introspection of the live package.  The output is a static HTML site
under ``docs/_site/``.

Usage::

    PYTHONPATH=src python docs/build.py [--strict] [--out docs/_site]

``--strict`` turns every warning into a build failure (the CI mode):

* a hand-written page links to a page that does not exist;
* a documented export is missing a docstring;
* a module listed for the API reference fails to import or names an
  ``__all__`` entry it does not define.

The markdown subset covers what the pages use: ATX headings, fenced code
blocks, inline code, bold/italics, links, ordered/unordered lists,
tables, blockquotes, and paragraphs.  Anything fancier belongs in the
code, not the docs.
"""

from __future__ import annotations

import argparse
import html
import importlib
import inspect
import re
import sys
import textwrap
from pathlib import Path

DOCS_DIR = Path(__file__).resolve().parent
REPO_ROOT = DOCS_DIR.parent

#: hand-written pages, in navigation order: (source file, nav title)
PAGES = [
    ("index.md", "Overview"),
    ("architecture.md", "Architecture"),
    ("recovery-policies.md", "Recovery policies"),
    ("schedules.md", "Pipeline schedules"),
    ("scenarios.md", "Failure scenarios"),
    ("observability.md", "Observability"),
    ("serve.md", "Serve control plane"),
    ("autoplan.md", "Auto-planner"),
    ("benchmarks.md", "Benchmark trajectory"),
]

#: modules whose public surface gets an auto-generated reference page
API_MODULES = ["repro.api", "repro.jobs", "repro.chaos", "repro.obs",
               "repro.plan", "repro.serve"]

CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 0; color: #1a1a2e; }
.layout { display: flex; min-height: 100vh; }
nav { width: 230px; flex-shrink: 0; background: #f6f7f9;
      border-right: 1px solid #e3e5e8; padding: 1.5rem 1rem; }
nav h1 { font-size: 1rem; margin: 0 0 1rem; }
nav a { display: block; color: #30507a; text-decoration: none;
        padding: 0.25rem 0.5rem; border-radius: 4px; font-size: 0.92rem; }
nav a:hover { background: #e8ecf2; }
nav .section { margin: 1rem 0 0.25rem; font-size: 0.75rem;
               text-transform: uppercase; color: #7a8190;
               letter-spacing: 0.06em; }
main { flex: 1; max-width: 52rem; padding: 2rem 3rem 4rem; }
h1, h2, h3 { line-height: 1.25; }
h2 { border-bottom: 1px solid #e3e5e8; padding-bottom: 0.3rem;
     margin-top: 2rem; }
code { background: #f2f3f5; padding: 0.1em 0.35em; border-radius: 3px;
       font-size: 0.9em; }
pre { background: #22252a; color: #e6e8eb; padding: 0.9rem 1.1rem;
      border-radius: 6px; overflow-x: auto; line-height: 1.45; }
pre code { background: none; padding: 0; color: inherit; }
table { border-collapse: collapse; margin: 1rem 0; }
th, td { border: 1px solid #d8dbe0; padding: 0.4rem 0.7rem;
         text-align: left; font-size: 0.92rem; }
th { background: #f6f7f9; }
blockquote { border-left: 3px solid #c3cad4; margin: 1rem 0;
             padding: 0.1rem 1rem; color: #4a5160; }
.api-entry { margin: 1.6rem 0; }
.api-entry .sig { background: #f2f3f5; border-left: 3px solid #30507a;
                  padding: 0.5rem 0.8rem; border-radius: 4px;
                  font-family: ui-monospace, monospace;
                  font-size: 0.88rem; white-space: pre-wrap; }
.api-entry .doc { margin-left: 0.3rem; }
.kind { color: #7a8190; font-size: 0.78rem; text-transform: uppercase;
        letter-spacing: 0.05em; }
"""


class BuildLog:
    """Collects warnings; ``--strict`` turns them into a failing build."""

    def __init__(self) -> None:
        self.warnings: list[str] = []

    def warn(self, message: str) -> None:
        self.warnings.append(message)
        print(f"[docs] WARNING: {message}", file=sys.stderr)


# -- markdown subset --------------------------------------------------------

_INLINE_RULES = [
    (re.compile(r"`([^`]+)`"), lambda m: f"<code>{m.group(1)}</code>"),
    (re.compile(r"\*\*([^*]+)\*\*"), lambda m: f"<strong>{m.group(1)}</strong>"),
    (re.compile(r"(?<![\w*])\*([^*]+)\*(?![\w*])"),
     lambda m: f"<em>{m.group(1)}</em>"),
    (re.compile(r"\[([^\]]+)\]\(([^)]+)\)"),
     lambda m: f'<a href="{m.group(2)}">{m.group(1)}</a>'),
]


def render_inline(text: str) -> str:
    """Inline markdown on an already-escaped line, code spans first.

    Code spans are rendered before emphasis so ``*`` inside backticks
    stays literal; the placeholder dance keeps later rules from
    touching rendered HTML.
    """
    out = html.escape(text, quote=False)
    placeholders: list[str] = []

    def stash(fragment: str) -> str:
        placeholders.append(fragment)
        return f"\x00{len(placeholders) - 1}\x00"

    for pattern, repl in _INLINE_RULES:
        out = pattern.sub(lambda m, r=repl: stash(r(m)), out)
    return re.sub(r"\x00(\d+)\x00",
                  lambda m: placeholders[int(m.group(1))], out)


def render_markdown(text: str) -> str:
    """Render the supported markdown subset to HTML."""
    lines = text.splitlines()
    out: list[str] = []
    i = 0
    in_list: str | None = None
    paragraph: list[str] = []

    def flush_paragraph() -> None:
        if paragraph:
            out.append(f"<p>{render_inline(' '.join(paragraph))}</p>")
            paragraph.clear()

    def close_list() -> None:
        nonlocal in_list
        if in_list:
            out.append(f"</{in_list}>")
            in_list = None

    while i < len(lines):
        line = lines[i]
        stripped = line.strip()

        if stripped.startswith("```"):
            flush_paragraph()
            close_list()
            block: list[str] = []
            i += 1
            while i < len(lines) and not lines[i].strip().startswith("```"):
                block.append(lines[i])
                i += 1
            code = html.escape("\n".join(block), quote=False)
            out.append(f"<pre><code>{code}</code></pre>")
            i += 1
            continue

        heading = re.match(r"^(#{1,4})\s+(.*)$", stripped)
        if heading:
            flush_paragraph()
            close_list()
            level = len(heading.group(1))
            body = render_inline(heading.group(2))
            anchor = re.sub(r"[^a-z0-9]+", "-",
                            heading.group(2).lower()).strip("-")
            out.append(f'<h{level} id="{anchor}">{body}</h{level}>')
            i += 1
            continue

        if stripped.startswith("|") and stripped.endswith("|"):
            flush_paragraph()
            close_list()
            rows: list[list[str]] = []
            while i < len(lines) and lines[i].strip().startswith("|"):
                cells = [c.strip() for c in lines[i].strip()[1:-1].split("|")]
                rows.append(cells)
                i += 1
            table = ["<table>"]
            header, *body_rows = rows
            table.append(
                "<tr>" + "".join(f"<th>{render_inline(c)}</th>"
                                 for c in header) + "</tr>"
            )
            for row in body_rows:
                if all(re.fullmatch(r":?-{2,}:?", c) for c in row if c):
                    continue  # the |---|---| separator line
                table.append(
                    "<tr>" + "".join(f"<td>{render_inline(c)}</td>"
                                     for c in row) + "</tr>"
                )
            table.append("</table>")
            out.extend(table)
            continue

        bullet = re.match(r"^[-*]\s+(.*)$", stripped)
        ordered = re.match(r"^\d+\.\s+(.*)$", stripped)
        if bullet or ordered:
            flush_paragraph()
            kind = "ul" if bullet else "ol"
            if in_list != kind:
                close_list()
                out.append(f"<{kind}>")
                in_list = kind
            item = [(bullet or ordered).group(1)]
            # hanging indents continue the item
            while (i + 1 < len(lines)
                   and lines[i + 1].startswith("  ")
                   and lines[i + 1].strip()
                   and not re.match(r"^\s*([-*]|\d+\.)\s", lines[i + 1])):
                i += 1
                item.append(lines[i].strip())
            out.append(f"<li>{render_inline(' '.join(item))}</li>")
            i += 1
            continue

        if stripped.startswith(">"):
            flush_paragraph()
            close_list()
            quote: list[str] = []
            while i < len(lines) and lines[i].strip().startswith(">"):
                quote.append(lines[i].strip().lstrip("> "))
                i += 1
            out.append(
                f"<blockquote><p>{render_inline(' '.join(quote))}</p>"
                "</blockquote>"
            )
            continue

        if not stripped:
            flush_paragraph()
            close_list()
            i += 1
            continue

        paragraph.append(stripped)
        i += 1

    flush_paragraph()
    close_list()
    return "\n".join(out)


# -- API reference generation -----------------------------------------------

def _signature(obj: object) -> str:
    try:
        return str(inspect.signature(obj))  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return ""


def _docstring_html(obj: object, log: BuildLog, qualname: str) -> str:
    """Docstring -> HTML: prose as inline markdown, code as <pre>.

    Two code forms are recognized: doctest blocks (``>>>`` until a blank
    line) and reST literal blocks (a line ending in ``::`` followed by
    indented lines).
    """
    doc = inspect.getdoc(obj)
    if not doc:
        log.warn(f"{qualname} has no docstring")
        return "<p><em>Undocumented.</em></p>"

    parts: list[str] = []
    prose: list[str] = []
    code: list[str] = []

    def flush_prose() -> None:
        if any(ln.strip() for ln in prose):
            parts.append(render_markdown("\n".join(prose)))
        prose.clear()

    def flush_code() -> None:
        if code:
            block = textwrap.dedent("\n".join(code)).strip("\n")
            parts.append(
                f"<pre><code>{html.escape(block, quote=False)}</code></pre>"
            )
        code.clear()

    lines = doc.splitlines()
    mode = "prose"
    i = 0
    while i < len(lines):
        line = lines[i]
        if mode == "prose":
            if line.lstrip().startswith(">>>"):
                flush_prose()
                mode = "doctest"
                continue
            if line.rstrip().endswith("::"):
                prose.append(line.rstrip()[:-2] + ":")
                flush_prose()
                mode = "literal"
                i += 1
                continue
            prose.append(line)
            i += 1
        elif mode == "doctest":
            if not line.strip():
                flush_code()
                mode = "prose"
            else:
                code.append(line)
            i += 1
        else:  # literal block: blank or indented lines continue it
            if line.strip() and not line.startswith(" "):
                flush_code()
                mode = "prose"
                continue
            code.append(line)
            i += 1
    flush_code()
    flush_prose()
    return "\n".join(p for p in parts if p.strip())


def render_api_page(module_name: str, log: BuildLog) -> str:
    """One reference page: module docstring + every ``__all__`` export."""
    try:
        module = importlib.import_module(module_name)
    except Exception as exc:  # pragma: no cover - import errors are fatal
        log.warn(f"cannot import {module_name}: {exc}")
        return f"<h1>{module_name}</h1><p>import failed</p>"
    parts = [f"<h1><code>{module_name}</code></h1>"]
    parts.append(_docstring_html(module, log, module_name))
    exports = list(getattr(module, "__all__", []))
    if not exports:
        log.warn(f"{module_name} has no __all__")
    parts.append("<h2>Public surface</h2>")
    for name in exports:
        obj = getattr(module, name, None)
        if obj is None:
            log.warn(f"{module_name}.__all__ names {name!r}, "
                     "which the module does not define")
            continue
        if inspect.ismodule(obj):
            continue  # submodule re-exports get their own pages
        qualname = f"{module_name}.{name}"
        kind = (
            "class" if inspect.isclass(obj)
            else "function" if callable(obj)
            else "constant"
        )
        sig = _signature(obj) if kind in ("class", "function") else ""
        parts.append('<div class="api-entry">')
        parts.append(f'<div class="kind">{kind}</div>')
        parts.append(
            f'<div class="sig" id="{name}">{html.escape(name + sig)}</div>'
        )
        parts.append(
            f'<div class="doc">{_docstring_html(obj, log, qualname)}</div>'
        )
        parts.append("</div>")
    return "\n".join(parts)


# -- site assembly ----------------------------------------------------------

def page_name(source: str) -> str:
    return Path(source).stem + ".html"


def api_page_name(module_name: str) -> str:
    return "api-" + module_name.replace(".", "-") + ".html"


def build_nav(current: str) -> str:
    items = ['<h1>swift-repro</h1>']
    items.append('<div class="section">Guides</div>')
    for source, title in PAGES:
        items.append(f'<a href="{page_name(source)}">{title}</a>')
    items.append('<div class="section">API reference</div>')
    for module_name in API_MODULES:
        items.append(
            f'<a href="{api_page_name(module_name)}">{module_name}</a>'
        )
    return "\n".join(items)


def wrap_page(title: str, body: str, current: str) -> str:
    return (
        "<!doctype html>\n<html lang=\"en\"><head>"
        f"<meta charset=\"utf-8\"><title>{html.escape(title)}"
        "&middot; swift-repro</title>"
        f"<style>{CSS}</style></head><body>"
        '<div class="layout">'
        f"<nav>{build_nav(current)}</nav>"
        f"<main>{body}</main>"
        "</div></body></html>\n"
    )


_LINK_RE = re.compile(r'href="([^"#]+)(#[^"]*)?"')


def check_links(pages: dict[str, str], log: BuildLog) -> None:
    """Every relative link must resolve to a generated page."""
    for name, content in pages.items():
        for match in _LINK_RE.finditer(content):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if target not in pages:
                log.warn(f"{name}: broken internal link to {target!r}")


def build(out_dir: Path, log: BuildLog) -> dict[str, str]:
    pages: dict[str, str] = {}
    for source, title in PAGES:
        path = DOCS_DIR / source
        if not path.exists():
            log.warn(f"missing documentation page {source}")
            continue
        body = render_markdown(path.read_text())
        pages[page_name(source)] = wrap_page(title, body, page_name(source))
    for module_name in API_MODULES:
        body = render_api_page(module_name, log)
        name = api_page_name(module_name)
        pages[name] = wrap_page(module_name, body, name)
    check_links(pages, log)

    out_dir.mkdir(parents=True, exist_ok=True)
    for name, content in pages.items():
        (out_dir / name).write_text(content)
    return pages


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--strict", action="store_true",
                        help="treat every warning as a build failure")
    parser.add_argument("--out", default=str(DOCS_DIR / "_site"),
                        help="output directory (default docs/_site)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO_ROOT / "src"))
    log = BuildLog()
    pages = build(Path(args.out), log)
    print(f"[docs] built {len(pages)} pages into {args.out}")
    if log.warnings:
        print(f"[docs] {len(log.warnings)} warning(s)", file=sys.stderr)
        if args.strict:
            print("[docs] --strict: failing the build", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
