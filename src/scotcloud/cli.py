"""Single command-line entry point.

Subcommands: serve (run the HTTP service), tag/cloud/map/attach/export
(speak the GET protocol to a running server), import (rebuild a store
directory from an exported document), simulate (replay a bot script
through the client simulator), layout (emit a scene for a cloud or map).

Exit codes: 0 success, 1 usage, 2 server/protocol error, 3 data error.
Human-readable output goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import uuid
from pathlib import Path
from typing import Optional
from urllib.parse import urlsplit

from . import model, rdfxml, service as service_mod

# The simulator, the layout engine and `wire`, the only module that speaks
# HTTP, are imported by the subcommands that use them: `serve` loads no
# simulator or layout engine, and the in-process commands load no HTTP code.

ENV_URL = "SCOTCLOUD_URL"
ENV_PORT = "SCOTCLOUD_PORT"
DEFAULT_URL = f"http://127.0.0.1:{service_mod.ServiceConfig.port}"
# uuid5(NAMESPACE_URL, "scotcloud:cli"), written out as model.IMPORT_TAGGER is, so that no import loads hashlib
CLI_TAGGER = uuid.UUID("cc81a37b-213a-5946-8376-1cbd190a0d03")
# Command-line bytes that are not UTF-8 reach sys.argv as lone surrogates, which no query or IRI can hold.
_NOT_UTF8 = re.compile("[\ud800-\udfff]")
# The characters http.client refuses anywhere in a URL: C0 controls, space and DEL.
_URL_REFUSED = re.compile("[\x00-\x20\x7f]")
_CLIENT_HELP = {
    "tag": "attach a tag to a resource",
    "cloud": "fetch a resource's tag cloud as RDF/XML",
    "map": "fetch a topic map as tree text",
    "attach": "bind a child concept under a parent",
    "export": "download the full store as one RDF/XML document",
}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROTOCOL = 2
EXIT_DATA = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _http_url(value: str) -> str:
    """The value of `--url` or SCOTCLOUD_URL, if it is http://host[:port][/path] that http.client can send.

    The host must IDNA encode, and the path be ASCII; no byte of the URL may
    be a control character, a space or DEL, which http.client refuses.
    """
    try:
        split = urlsplit(value)
        refused = _URL_REFUSED.search(value) or not split.path.isascii()
        if refused or split.scheme != "http" or not split.hostname or split.port == 0:  # .port refuses one past 65535
            raise ValueError
        split.hostname.encode("idna")  # UnicodeError is a ValueError
        split.netloc.encode("idna")  # what http.client resolves, which may hold more than .hostname: [::1]x
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{value!r}, from --url or else {ENV_URL}, is not an http://host:port URL with a port from 1 to 65535"
        ) from None
    return value


def _path(value: str) -> str:
    """The value of a flag that names a file or directory, if it holds no NUL, which no path can."""
    if "\0" in value:
        raise argparse.ArgumentTypeError(f"{value!r} holds NUL, which no path can")
    return value


def _emit(text: str, out: Optional[str] = None) -> int:
    """Write the output to the file `out`, or to stdout; a failed write is a data error."""
    try:
        if out:
            Path(out).write_text(text, "utf-8", newline="\n")
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        return _fail(EXIT_DATA, f"out: {exc}")
    return EXIT_OK


# tokens that mean the request data was refused, vs. protocol misuse
_DATA_TOKENS = {"cycle", "parented", "merge", "unknown", "badtag", "badtagger", "baddepth", "missing"}


def _status_exit(status: int, body: str) -> int:
    data = status in (404, 409) or body.strip() in _DATA_TOKENS
    return _fail(EXIT_DATA if data else EXIT_PROTOCOL, f"server said {status}: {body}")


# -- subcommands ---------------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.config:
        try:
            config = service_mod.load_config(args.config)
        except (OSError, ValueError) as exc:
            return _fail(EXIT_DATA, f"config: {exc}")
    else:
        config = service_mod.ServiceConfig()
    port_env = os.environ.get(ENV_PORT)
    if port_env:
        try:
            config.port = int(port_env)
        except ValueError:
            return _fail(EXIT_USAGE, f"serve: {ENV_PORT} is not a port number: {port_env!r}")
    if args.port is not None:
        config.port = args.port
    if args.store:
        config.store_path = args.store
    if _NOT_UTF8.search(args.host):
        return _fail(EXIT_DATA, "serve: --host is not UTF-8 text")
    if not args.host.isascii():  # bind IDNA encodes such a host, and fails with TypeError if it cannot
        try:
            args.host.encode("idna")
        except UnicodeError:
            return _fail(EXIT_USAGE, f"serve: --host {args.host!r} is not a name that IDNA can encode")
    try:
        svc = service_mod.AnnotationService(config)
    except (service_mod.StoreLoadError, OSError) as exc:
        return _fail(EXIT_DATA, f"store: {exc}")
    from . import wire

    try:
        wire.serve(svc, args.host)
    except (OSError, OverflowError) as exc:  # the port is taken, or out of range
        return _fail(EXIT_PROTOCOL, f"serve: {exc}")
    return EXIT_OK


def _cmd_request(args: argparse.Namespace) -> int:
    """Send the subcommand's operation, its flags as the query; a document goes to --out or stdout."""
    from . import sim, wire

    operation = args.subcommand
    params = [(name, str(getattr(args, name))) for name in service_mod.OPERATIONS[operation]]
    for name, value in params:
        if _NOT_UTF8.search(value):
            return _fail(EXIT_DATA, f"{operation}: --{name} is not UTF-8 text")
    status, raw = sim.fetch_body(wire.HttpTransport(args.url), operation, params)
    try:
        body = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return _fail(EXIT_PROTOCOL, f"the server at {args.url} sent an answer that is not UTF-8 ({exc})")
    if status != 200:
        return _status_exit(status, body)
    if operation in service_mod.MUTATIONS:
        return _emit(body.removeprefix("ok ") + "\n")
    return _emit(body, args.out)


def _cmd_import(args: argparse.Namespace) -> int:
    try:
        document = Path(args.infile).read_bytes()  # the parser decodes it, and reports bytes that are not UTF-8
    except OSError as exc:
        return _fail(EXIT_DATA, f"import: {exc}")
    try:
        store = model.store_from_graph(rdfxml.parse(document), model.VocabConfig())
    except (rdfxml.RdfParseError, model.CloudShapeError) as exc:
        return _fail(EXIT_DATA, f"import: {exc}")
    try:
        service_mod.snapshot_store(store, args.store)
    except (service_mod.StoreLoadError, OSError) as exc:
        return _fail(EXIT_DATA, f"import: {exc}")
    print(f"imported {len(store.clouds)} clouds, {len(store.maps)} maps into {args.store}", file=sys.stderr)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import sim

    try:
        script = sim.parse_script(Path(args.script).read_text("utf-8"))
    except (OSError, UnicodeDecodeError, sim.ScriptFormatError) as exc:
        return _fail(EXIT_DATA, f"script: {exc}")

    if args.url:
        from . import wire

        target: sim.Transport | service_mod.AnnotationService = wire.HttpTransport(args.url)
    else:
        store = None
        if args.store:
            try:
                store = service_mod.restore_store(args.store)
            except (service_mod.StoreLoadError, OSError) as exc:
                return _fail(EXIT_DATA, f"store: {exc}")
        target = service_mod.AnnotationService(store=store)
    try:
        simulator = sim.Simulator(
            target, units=args.units, seed=args.seed, base_latency_ms=args.base_latency, jitter_ms=args.jitter
        )
    except (sim.SimError, ValueError) as exc:
        return _fail(EXIT_USAGE, f"simulate: {exc}")
    return _emit(simulator.run(script))


def _cmd_layout(args: argparse.Namespace) -> int:
    from . import layout as layout_mod

    if bool(args.resource) == bool(args.root):
        return _fail(EXIT_USAGE, "layout: give exactly one of --resource or --root")
    if args.resource and _NOT_UTF8.search(args.resource):
        return _fail(EXIT_DATA, "layout: --resource is not UTF-8 text")
    if args.depth is not None and args.depth < 1:
        return _fail(EXIT_DATA, "layout: depth must be at least 1")
    if args.store:
        try:
            store = service_mod.restore_store(args.store)
        except (service_mod.StoreLoadError, OSError) as exc:
            return _fail(EXIT_DATA, f"store: {exc}")
    else:
        store = model.AnnotationStore()
    vocab = model.VocabConfig()
    params = layout_mod.LayoutParams()
    try:
        if args.resource:
            cloud = store.cloud_of(vocab.resource_iri(args.resource))
            scene = layout_mod.layout_cloud(cloud, params, args.now)
        else:
            try:
                height = store.height(model.normalize_tag(args.root))
            except model.UnknownConceptError:
                return _fail(EXIT_DATA, f"layout: unknown concept {args.root!r}")
            tree = store.subtree(args.root, args.depth or height)
            cloud = store.cloud_of(vocab.resource_iri(tree.root))
            scene = layout_mod.layout_map(tree, cloud, params, args.now)
    except (model.TagError, rdfxml.ValidationError) as exc:
        return _fail(EXIT_DATA, f"layout: {exc}")
    except layout_mod.LayoutError as exc:
        return _fail(EXIT_DATA, f"layout: {exc}")
    if args.format == "json":
        return _emit(layout_mod.render_scene_json(scene))
    return _emit(layout_mod.render_scene_flat(scene))


# -- parser ----------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="scotcloud", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    env_url = os.environ.get(ENV_URL) or None  # argparse checks a default with `type`, as it checks --url

    p = sub.add_parser("serve", help="run the annotation server")
    p.add_argument("--port", type=int, default=None)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--store", type=_path, default=None, help="store directory (events.log) to load and write through")
    p.add_argument("--config", type=_path, default=None, help="key=value config file")
    p.set_defaults(func=_cmd_serve)

    # Each client subcommand's flags are its operation's query parameters, then --url, and --out for a document.
    for operation, names in service_mod.OPERATIONS.items():
        p = sub.add_parser(operation, help=_CLIENT_HELP[operation])
        for name in names:
            if name == "tagger":
                p.add_argument("--tagger", default=str(CLI_TAGGER))
            elif name in service_mod.PARAM_DEFAULTS:  # depth, the one optional parameter, is a number
                p.add_argument(f"--{name}", type=int, default=service_mod.PARAM_DEFAULTS[name])
            else:
                p.add_argument(f"--{name}", required=True)
        p.add_argument("--url", type=_http_url, default=env_url or DEFAULT_URL)
        if operation not in service_mod.MUTATIONS:
            p.add_argument("--out", type=_path, default=None)
        p.set_defaults(func=_cmd_request)

    p = sub.add_parser("import", help="rebuild a store directory from an exported document")
    p.add_argument("--in", dest="infile", type=_path, required=True)
    p.add_argument("--store", type=_path, required=True)
    p.set_defaults(func=_cmd_import)

    p = sub.add_parser("simulate", help="replay a bot script through the client simulator")
    p.add_argument("--script", type=_path, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--units", type=int, default=1)
    p.add_argument("--base-latency", type=int, default=50)
    p.add_argument("--jitter", type=int, default=0)
    p.add_argument("--store", type=_path, default=None, help="seed the in-process server from this store directory")
    p.add_argument("--url", type=_http_url, default=env_url, help="wire mode: talk to a live server instead")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("layout", help="emit a scene description for a cloud or topic map")
    p.add_argument("--store", type=_path, default=None)
    p.add_argument("--resource", default=None)
    p.add_argument("--root", default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--now", type=int, default=0, help="scene creation instant in ms")
    p.add_argument("--format", choices=("flat", "json"), default="flat")
    p.set_defaults(func=_cmd_layout)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if [] in vars(args).values():  # argparse strips `--` from `--flag=--`, which leaves [], no flag's value
            parser.error("-- is no flag's value")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConnectionError as exc:  # only a subcommand that sends requests over HTTP raises one of wire's
        from . import wire  # loaded already by any such subcommand

        if isinstance(exc, wire.Unreachable):
            return _fail(EXIT_PROTOCOL, f"cannot reach server at {args.url}")
        if not isinstance(exc, wire.AnswerLost):
            raise
        lost = f"the server at {args.url} may have applied the request, but its answer was lost ({exc})"
        return _fail(EXIT_PROTOCOL, lost)
    except service_mod.PageError as exc:
        return _fail(EXIT_PROTOCOL, f"server at {getattr(args, 'url', None)} sent a body that is not a page: {exc}")
    except service_mod.ReassemblyError as exc:
        return _fail(EXIT_PROTOCOL, f"the document changed during the page walk ({exc}); try again")
    except KeyboardInterrupt:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
