"""Producer -> consumer kernel fusion.

Classic streaming-compiler fusion (Brook for GPUs, StreamIt): when one
kernel's output stream is consumed element-for-element by the next
kernel, the two passes can be merged into a single kernel in which the
intermediate stream becomes a register-resident local variable.  The
merged kernel

* eliminates the intermediate stream's device storage,
* eliminates one full write + read of the intermediate (on the OpenGL
  ES 2 backend that is an RGBA8 encode, a texture write, a texture fetch
  and an RGBA8 decode per element), and
* saves one kernel pass (draw call) of fixed overhead.

Fusion is *legal* when the producer and consumer are plain map kernels
launched over the same domain and the consumer reads the intermediate as
a positional input stream - element ``i`` of the consumer only ever sees
element ``i`` of the producer.  A consumer that **gathers** from the
intermediate (``a[j]``) may read arbitrary elements and therefore needs
the whole intermediate materialised first; such pairs are rejected and
keep running as two passes.  Reductions are likewise never fused.

A whole producer -> consumer chain merges in one step
(:func:`fuse_definitions`, on the AST: each member is copied once, with
the names a pairwise fold would give it), and :func:`fuse_compiled`
packages the merged definition as a
:class:`~repro.core.compiler.CompiledKernel` with generated shader text
and compiled execution paths, built once.  The runtime entry point,
``rt.fuse([...])``, lives in :mod:`repro.runtime.launch`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ...errors import FusionError
from .. import ast_nodes as ast
from ..types import ParamKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.loop_bounds import LoopBoundAnalysis
    from ..analysis.resources import KernelResources, TargetLimits
    from ..compiler import CompiledKernel

__all__ = ["FusionResult", "check_fusable", "fuse_definitions", "fuse_compiled"]


@dataclass
class FusionResult:
    """Outcome of fusing a chain of kernel definitions."""

    #: The merged kernel definition.
    definition: ast.FunctionDef
    #: Per merged member, in chain order: each of its symbols (parameters
    #: and locals) -> its name in the fused kernel.  A consumer input fed
    #: by an earlier member maps to the local carrying that value.
    renames: Tuple[Dict[str, str], ...] = ()
    #: Element widths of the eliminated intermediate streams (used by the
    #: statistics / timing accounting of saved stream traffic).
    eliminated_widths: Tuple[int, ...] = ()
    #: Resource estimate and loop analysis of :attr:`definition`.
    resources: Optional["KernelResources"] = None
    loop_analysis: Optional["LoopBoundAnalysis"] = None


def _collect_names(kernel: ast.FunctionDef) -> List[str]:
    names = [param.name for param in kernel.params]
    for node in kernel.body.walk():
        if isinstance(node, ast.DeclStatement):
            names.append(node.name)
        elif isinstance(node, ast.Identifier):
            names.append(node.name)
    return names


def _fresh_prefix(names) -> str:
    taken = set(names)
    counter = 0
    while True:
        prefix = f"f{counter}_"
        if not any(name.startswith(prefix) for name in taken):
            return prefix
        counter += 1


def _rename_symbols(kernel: ast.FunctionDef, renames: Dict[str, str]) -> None:
    """Apply ``renames`` in place to parameters, locals and references."""
    for node in kernel.walk():
        if isinstance(node, ast.Identifier) and node.name in renames:
            node.name = renames[node.name]
        elif isinstance(node, ast.DeclStatement) and node.name in renames:
            node.name = renames[node.name]
        elif isinstance(node, ast.KernelParam) and node.name in renames:
            node.name = renames[node.name]
        elif isinstance(node, ast.IndexOfExpr) and node.stream in renames:
            # indexof() lowers to the implicit element position on every
            # code generator, so retargeting the name is purely cosmetic.
            node.stream = renames[node.stream]


def check_fusable(
    producer: ast.FunctionDef,
    consumer: ast.FunctionDef,
    connections: Dict[str, str],
) -> Optional[str]:
    """Why ``producer``/``consumer`` cannot be fused, or ``None`` if legal.

    Args:
        producer: The upstream map kernel.
        consumer: The downstream map kernel.
        connections: Consumer input-stream parameter name -> producer
            output parameter name feeding it.
    """
    if not producer.is_kernel or producer.is_reduction:
        return f"{producer.name!r} is not a map kernel"
    if not consumer.is_kernel or consumer.is_reduction:
        return f"{consumer.name!r} is not a map kernel"
    if any(isinstance(node, ast.ReturnStatement)
           for node in producer.body.walk()):
        # An early return only ends the *producer* when the kernels run
        # as separate passes; in a concatenated body the SIMT returned
        # mask would suppress the consumer's statements too.
        return (f"{producer.name!r} returns early; its return mask would "
                "also suppress the consumer's statements")
    if not connections:
        return "no producer output feeds a consumer input"
    for consumer_param, producer_out in connections.items():
        out_param = producer.param(producer_out)
        if out_param is None or out_param.kind is not ParamKind.OUT_STREAM:
            return (f"{producer_out!r} is not an output stream of "
                    f"{producer.name!r}")
        in_param = consumer.param(consumer_param)
        if in_param is None:
            return (f"{consumer_param!r} is not a parameter of "
                    f"{consumer.name!r}")
        if in_param.kind is ParamKind.GATHER:
            return (f"{consumer.name!r} gathers from the intermediate "
                    f"{consumer_param!r}; the intermediate must be "
                    "materialised (fusion would change its values)")
        if in_param.kind is not ParamKind.STREAM:
            return (f"{consumer_param!r} of {consumer.name!r} is a "
                    f"{in_param.kind.value} parameter, not an input stream")
        if in_param.type.width != out_param.type.width:
            return (f"element width mismatch: {producer_out!r} is "
                    f"float{out_param.type.width} but {consumer_param!r} "
                    f"expects float{in_param.type.width}")
    return None


#: Per consumer (chain position ``k >= 1``): each of its input-stream
#: parameters fed by an earlier member -> ``(member index, output
#: parameter)`` of that member.
Connections = Sequence[Dict[str, Tuple[int, str]]]


def _chain_renames(definitions: Sequence[ast.FunctionDef],
                   connections: Connections) -> List[Dict[str, str]]:
    """Per member, every symbol -> its name in the fused kernel.

    The names are those of a pairwise fold: fusing member ``k`` into the
    kernel merged so far prefixes every symbol of that kernel with the
    first ``f<n>_`` that no name of either kernel starts with, and ``k``'s
    connected inputs take the name of the output feeding them.
    """
    renames: List[Dict[str, str]] = []
    for index, definition in enumerate(definitions):
        names = _collect_names(definition)
        member = {name: name for name in names}
        if index:
            prefix = _fresh_prefix(set(names).union(
                *(earlier.values() for earlier in renames)))
            for earlier in renames:
                for symbol, name in earlier.items():
                    earlier[symbol] = prefix + name
            for param, (source, out) in connections[index - 1].items():
                member[param] = renames[source].get(out, out)
        renames.append(member)
    return renames


class _Chain:
    """One renamed copy of each member, and the fused kernel of any prefix.

    Every prefix shares the copies' nodes, so growing the fused kernel by
    a member copies nothing.  The copies carry the names of the whole
    chain; a prefix under those names differs from the pairwise fold of
    that prefix only by a consistent renaming, which no legality check or
    resource estimate can observe.
    """

    def __init__(self, definitions: Sequence[ast.FunctionDef],
                 connections: Connections):
        self.definitions = list(definitions)
        self.connections = list(connections)
        self.renames = _chain_renames(definitions, connections)
        self.copies = []
        for definition, names in zip(self.definitions, self.renames):
            member = copy.deepcopy(definition)
            _rename_symbols(member, names)
            self.copies.append(member)

    def merged(self, count: int) -> Tuple[ast.FunctionDef, List[int]]:
        """The first ``count >= 2`` members fused, and the eliminated widths.

        Each step's eliminated outputs become locals declared ahead of
        the previous steps' ones; the bodies follow in chain order.
        """
        dropped = set()  # (member, parameter position)
        decls: List[ast.Statement] = []
        widths: List[int] = []
        for index in range(1, count):
            edge = self.connections[index - 1]
            dropped.update(self._position(index, param) for param in edge)
            outs = sorted({self._position(*out) for out in edge.values()})
            dropped.update(outs)
            params = [self.copies[source].params[at] for source, at in outs]
            decls = [ast.DeclStatement(location=param.location,
                                       decl_type=param.type,
                                       name=param.name, init=None)
                     for param in params] + decls
            widths += [param.type.width for param in params]
        first = self.definitions[0]
        return ast.FunctionDef(
            location=first.location,
            name="__".join(d.name for d in self.definitions[:count]),
            return_type=first.return_type,
            params=[param for index, member in enumerate(self.copies[:count])
                    for at, param in enumerate(member.params)
                    if (index, at) not in dropped],
            body=ast.Block(
                location=first.body.location,
                statements=decls + [statement
                                    for member in self.copies[:count]
                                    for statement in member.body.statements],
            ),
            is_kernel=True,
            is_reduction=False,
        ), widths

    def _position(self, member: int, name: str) -> Tuple[int, int]:
        names = [param.name for param in self.definitions[member].params]
        return member, names.index(name)


def fuse_definitions(
    definitions: Sequence[ast.FunctionDef],
    connections: Connections,
    limits: Optional["TargetLimits"] = None,
) -> FusionResult:
    """Merge a producer -> consumer chain of map kernels into one kernel.

    Member ``k``'s connected input-stream parameters disappear and read
    the locals that replace the outputs feeding them; outputs no later
    member reads stay parameters.  Every symbol is renamed so the bodies
    can be concatenated safely, with the names a pairwise fold gives
    them, and each member is copied once.

    Members join in chain order while :func:`check_fusable` accepts the
    next one and, with ``limits``, the merged kernel fits them; the
    result covers the members that joined (``len(result.renames)``).

    Raises:
        FusionError: When not even the first two members merge.
    """
    from ..analysis.loop_bounds import analyze_loop_bounds
    from ..analysis.resources import estimate_resources

    if len(definitions) < 2:
        raise FusionError("fusion needs a chain of at least two kernels")
    chain = _Chain(definitions, connections)
    # Step ``index`` fuses member ``index`` into the kernel of the
    # members before it, as the pairwise fold does.
    producer, count = chain.copies[0], 1
    for index in range(1, len(chain.definitions)):
        consumer = chain.definitions[index]
        connected = {param: chain.renames[source].get(out, out) for param,
                     (source, out) in chain.connections[index - 1].items()}
        reason = check_fusable(producer, consumer, connected)
        if reason is None:
            candidate, widths = chain.merged(index + 1)
            loop_analysis = analyze_loop_bounds(candidate, {})
            resources = estimate_resources(candidate, loop_analysis)
            problems = resources.fits(limits) if limits is not None else []
            if problems:
                reason = "the merged kernel exceeds the device limits: " \
                    + "; ".join(problems)
        if reason is not None:
            if index == 1:
                raise FusionError(f"cannot fuse {producer.name!r} -> "
                                  f"{consumer.name!r}: {reason}")
            break
        producer, count = candidate, index + 1
        fused = (widths, loop_analysis, resources)
    if count < len(chain.definitions):
        # Renamed as a chain of ``count`` members.
        return fuse_definitions(chain.definitions[:count],
                                chain.connections[:count - 1])
    widths, loop_analysis, resources = fused
    return FusionResult(
        definition=producer,
        renames=tuple(chain.renames),
        eliminated_widths=tuple(widths),
        resources=resources,
        loop_analysis=loop_analysis,
    )


def fuse_compiled(
    kernels: Sequence["CompiledKernel"],
    fusion: FusionResult,
    helpers: Dict[str, ast.FunctionDef],
    enable_fast_path: bool = True,
    enable_vector_path: bool = False,
) -> "CompiledKernel":
    """Package the fusion of ``kernels`` as a launchable kernel.

    ``fusion`` is :func:`fuse_definitions` of the kernels' definitions.
    Regenerates the shader artefacts (best effort, like the compiler
    driver) and builds the fast and vector paths once for the merged
    body.  ``fused_from`` records the flattened source kernel names so
    launch statistics can attribute saved passes.
    """
    # Imported lazily: the compiler driver imports this package for its
    # other passes, so a module-level import would be circular.
    from ..codegen.c_backend import generate_c
    from ..codegen.glsl_desktop import generate_desktop_glsl
    from ..codegen.glsl_es import generate_glsl_es
    from ..compiler import CompiledKernel
    from ..exec.compiled import compile_fast_path
    from ...errors import CodegenError

    fused_def = fusion.definition
    fused = CompiledKernel(
        name=fused_def.name,
        definition=fused_def,
        original_name=fused_def.name,
        resources=fusion.resources,
        max_loop_iterations=fusion.loop_analysis.max_total_iterations,
        fused_from=sum((kernel.fused_from or (kernel.name,)
                        for kernel in kernels), ()),
        fused_saved_components=(sum(kernel.fused_saved_components
                                    for kernel in kernels)
                                + sum(fusion.eliminated_widths)),
    )
    helper_defs = list(helpers.values())
    for attribute, generate in (("glsl_es", generate_glsl_es),
                                ("desktop_glsl", generate_desktop_glsl),
                                ("c_source", generate_c)):
        try:
            setattr(fused, attribute, generate(fused_def, helper_defs))
        except CodegenError:
            setattr(fused, attribute, None)
    if enable_fast_path:
        fused.fast_path = compile_fast_path(fused_def, helpers)
    if enable_vector_path:
        from ..exec.vectorized import build_vector_path

        fused.vector_path, fused.vector_report = build_vector_path(
            fused_def, helpers)
    return fused
