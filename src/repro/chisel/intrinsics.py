"""Built-in Chisel constructors, methods and operators used during elaboration.

This module is the "standard library" the elaborator dispatches into:
hardware constructors (``Wire``, ``Reg``, ``IO``, ``VecInit`` ...), methods on
hardware values (``.asUInt``, ``.andR``, Vec ``map``/``reduce`` ...), Scala
collection helpers (``Seq``, ranges) and the operator table.  All Table II
diagnostics that originate in "Scala compilation" (A1-A3, B2, B5, B6, B7) are
raised from here with the matching error class code.
"""

from __future__ import annotations

import math

from repro.chisel import ast
from repro.chisel import values as v
from repro.chisel.diagnostics import ChiselError, SourceLocation
from repro.firrtl import ir
from repro.hdl.bits import min_width_for
from repro.hdl.literals import LiteralError, parse_literal

BUILTIN_NAMES = {
    "UInt",
    "SInt",
    "Bool",
    "Clock",
    "Reset",
    "AsyncReset",
    "Vec",
    "Input",
    "Output",
    "Flipped",
    "IO",
    "Wire",
    "WireDefault",
    "WireInit",
    "Reg",
    "RegInit",
    "RegNext",
    "RegEnable",
    "Mux",
    "Cat",
    "Fill",
    "VecInit",
    "PopCount",
    "Reverse",
    "log2Ceil",
    "log2Up",
    "log2Floor",
    "isPow2",
    "printf",
    "assert",
    "require",
    "stop",
    "Module",
    "Mem",
    "SyncReadMem",
    "Seq",
    "List",
    "Range",
    "MuxCase",
    "MuxLookup",
    "Counter",
    "Enum",
}

COMPANION_OBJECTS = {"Seq", "List", "Vec", "VecInit", "Range", "math", "Array"}


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def _uint_lit(value: int, width: int | None) -> v.HwValue:
    return v.HwValue(ir.UIntLiteral(value, width), v.UIntT(width), v.BINDING_LITERAL)


def _sint_lit(value: int, width: int | None) -> v.HwValue:
    return v.HwValue(ir.SIntLiteral(value, width), v.SIntT(width), v.BINDING_LITERAL)


def _bool_lit(flag: bool) -> v.HwValue:
    return v.HwValue(ir.UIntLiteral(1 if flag else 0, 1), v.BoolT(), v.BINDING_LITERAL)


def _type_width(tpe: v.HwType) -> int | None:
    if isinstance(tpe, (v.UIntT, v.SIntT)):
        return tpe.width
    if isinstance(tpe, (v.BoolT, v.ClockT, v.ResetT, v.AsyncResetT)):
        return 1
    if isinstance(tpe, v.VecT):
        elem = _type_width(tpe.element)
        return None if elem is None else elem * tpe.size
    if isinstance(tpe, v.BundleT):
        total = 0
        for field in tpe.fields:
            w = _type_width(field.tpe)
            if w is None:
                return None
            total += w
        return total
    return None


def _require_hw(value: object, location: SourceLocation, context: str) -> v.HwValue:
    if isinstance(value, v.HwValue):
        return value
    if isinstance(value, (v.HwType, v.Directed)):
        raise ChiselError.at(
            f"{v.describe_value(value)} must be hardware, not a bare Chisel type. "
            "Perhaps you forgot to wrap it in Wire(_) or IO(_)?",
            location,
            code="B2",
        )
    raise ChiselError.at(
        f"type mismatch;\n found   : {v.describe_value(value)}\n required: chisel3.Data\n"
        f"{context} requires a hardware value",
        location,
        code="B5",
    )


def _require_type(value: object, location: SourceLocation, context: str) -> v.HwType:
    if isinstance(value, v.HwType):
        return value
    if isinstance(value, v.Directed):
        return value.tpe
    if isinstance(value, v.HwValue):
        raise ChiselError.at(
            f"{context} expects a Chisel type (e.g. UInt(8.W)), but a hardware value of "
            f"type {value.type_name()} was provided",
            location,
            code="B2",
        )
    raise ChiselError.at(
        f"{context} expects a Chisel type, found {v.describe_value(value)}",
        location,
        code="B5",
    )


def _require_int(value: object, location: SourceLocation, context: str) -> int:
    if isinstance(value, bool):
        raise ChiselError.at(
            f"{context} expects an Int, found Boolean", location, code="B5"
        )
    if isinstance(value, int):
        return value
    if isinstance(value, v.HwValue):
        raise ChiselError.at(
            "overloaded method apply with alternatives:\n"
            "  (x: BigInt, y: BigInt)chisel3.UInt <and>\n"
            "  (x: Int, y: Int)chisel3.UInt\n"
            f" cannot be applied to ({value.type_name()})\n"
            f"{context} requires a Scala Int (compile-time constant)",
            location,
            code="A3",
        )
    raise ChiselError.at(
        f"{context} expects an Int, found {v.describe_value(value)}", location, code="B5"
    )


def _merge_types(a: v.HwType, b: v.HwType, location: SourceLocation) -> v.HwType:
    if isinstance(a, v.BoolT) and isinstance(b, v.BoolT):
        return v.BoolT()
    if isinstance(a, v.VecT) and isinstance(b, v.VecT):
        if a.size != b.size:
            raise ChiselError.at(
                f"cannot merge Vec types of different sizes ({a.size} vs {b.size})",
                location,
                code="B5",
            )
        return v.VecT(a.size, _merge_types(a.element, b.element, location))
    if isinstance(a, v.SIntT) and isinstance(b, v.SIntT):
        wa, wb = a.width, b.width
        width = None if wa is None or wb is None else max(wa, wb)
        return v.SIntT(width)
    if isinstance(a, v.BundleT):
        return a
    wa, wb = _type_width(a), _type_width(b)
    width = None if wa is None or wb is None else max(wa, wb)
    return v.UIntT(width)


def _call_lambda(elab, lam: object, args: list[object], ctx, location: SourceLocation) -> object:
    from repro.chisel.elaborator import Scope

    if not (isinstance(lam, tuple) and len(lam) == 3 and lam[0] == "lambda"):
        raise ChiselError.at(
            "expected a function argument (e.g. _ + _ or x => ...)", location, code="A3"
        )
    _, expr, closure = lam
    scope = Scope(closure)
    if len(args) != len(expr.params):
        raise ChiselError.at(
            f"wrong number of arguments for function: expected {len(expr.params)}, "
            f"found {len(args)}",
            location,
            code="A3",
        )
    for param, arg in zip(expr.params, args):
        scope.define(param, arg)
    return elab._eval(expr.body, scope, ctx)


# ---------------------------------------------------------------------------
# Builtin constructor / function calls (bare names)
# ---------------------------------------------------------------------------


def call_builtin(elab, expr: ast.MethodCall, scope, ctx, name_hint: str | None) -> object:
    name = expr.name
    location = expr.location
    args = [elab._eval(a, scope, ctx) for a in expr.args]
    extra = [[elab._eval(a, scope, ctx) for a in arg_list] for arg_list in expr.extra_arg_lists]

    if name == "UInt":
        return _make_int_type(args, location, signed=False)
    if name == "SInt":
        return _make_int_type(args, location, signed=True)
    if name == "Bool":
        return v.BoolT()
    if name == "Clock":
        return v.ClockT()
    if name == "Reset":
        return v.ResetT()
    if name == "AsyncReset":
        return v.AsyncResetT()
    if name == "Vec":
        if len(args) != 2:
            raise ChiselError.at(
                f"Vec(n, gen) expects 2 arguments, found {len(args)}", location, code="A3"
            )
        size = _require_int(args[0], location, "Vec size")
        element = _require_type(args[1], location, "Vec element")
        return v.VecT(size, element)
    if name in ("Input", "Output"):
        tpe = _require_type(args[0], location, name) if args else None
        if tpe is None:
            raise ChiselError.at(f"{name}() requires a type argument", location, code="A3")
        return v.Directed(name.lower(), tpe)
    if name == "Flipped":
        inner = args[0]
        if isinstance(inner, v.Directed):
            flipped = "input" if inner.direction == "output" else "output"
            return v.Directed(flipped, inner.tpe)
        tpe = _require_type(inner, location, "Flipped")
        if isinstance(tpe, v.BundleT):
            fields = tuple(
                v.BundleFieldT(
                    f.name,
                    f.tpe,
                    {"input": "output", "output": "input", None: "input"}[f.direction],
                )
                for f in tpe.fields
            )
            return v.BundleT(fields, tpe.type_name)
        return v.Directed("input", tpe)
    if name == "IO":
        return _make_io(elab, args, location, ctx, name_hint)
    if name == "Wire":
        return _make_wire(args, location, ctx, name_hint, default=None)
    if name in ("WireDefault", "WireInit"):
        return _make_wire_default(elab, args, location, ctx, name_hint)
    if name == "Reg":
        return _make_reg(args, location, ctx, name_hint)
    if name == "RegInit":
        return _make_reg_init(args, location, ctx, name_hint)
    if name == "RegNext":
        return _make_reg_next(args, location, ctx, name_hint)
    if name == "RegEnable":
        return _make_reg_enable(args, location, ctx, name_hint)
    if name == "Mux":
        return _make_mux(elab, args, location)
    if name == "Cat":
        return _make_cat(args, location)
    if name == "Fill":
        return _make_fill(args, location)
    if name == "VecInit":
        return _make_vecinit(args, location, ctx, name_hint)
    if name == "PopCount":
        operand = _require_hw(args[0], location, "PopCount")
        width = _type_width(operand.tpe)
        result_width = None if width is None else max(1, min_width_for(width))
        return v.HwValue(
            ir.DoPrim("popcount", (operand.expr,)), v.UIntT(result_width), v.BINDING_OP
        )
    if name == "Reverse":
        operand = _require_hw(args[0], location, "Reverse")
        return v.HwValue(
            ir.DoPrim("reverse", (operand.expr,)), v.UIntT(_type_width(operand.tpe)), v.BINDING_OP
        )
    if name == "log2Ceil":
        value = _require_int(args[0], location, "log2Ceil")
        if value <= 0:
            raise ChiselError.at("log2Ceil requires a positive argument", location, code="A3")
        return max(0, (value - 1).bit_length())
    if name == "log2Up":
        value = _require_int(args[0], location, "log2Up")
        if value <= 0:
            raise ChiselError.at("log2Up requires a positive argument", location, code="A3")
        return max(1, (value - 1).bit_length()) if value > 1 else 1
    if name == "log2Floor":
        value = _require_int(args[0], location, "log2Floor")
        if value <= 0:
            raise ChiselError.at("log2Floor requires a positive argument", location, code="A3")
        return value.bit_length() - 1
    if name == "isPow2":
        value = _require_int(args[0], location, "isPow2")
        return value > 0 and (value & (value - 1)) == 0
    if name in ("printf", "assert", "require", "stop"):
        return None
    if name == "Module":
        raise ChiselError.at(
            "submodule instantiation (Module(new ...)) is not supported by this Chisel "
            "subset; flatten the design into a single module",
            location,
            code="UNSUPPORTED",
        )
    if name in ("Mem", "SyncReadMem"):
        return _make_mem(args, location, ctx, name_hint, sync_read=(name == "SyncReadMem"))
    if name in ("Queue", "Counter", "Enum", "MuxCase", "MuxLookup"):
        # Each rejection names the nearest supported construct so generated
        # repair suggestions stay actionable.
        hints = {
            "Queue": "build the FIFO explicitly from a Mem (or Reg-based shift "
                     "register) with read/write pointer registers",
            "Counter": "use a RegInit(0.U(w.W)) counter incremented with + 1.U",
            "Enum": "use plain UInt literal states (val sIdle = 0.U(2.W); ...)",
            "MuxCase": "use nested Mux(cond, value, default) expressions",
            "MuxLookup": "use nested Mux(sel === key.U, value, default) expressions",
        }
        raise ChiselError.at(
            f"{name} is not supported by this Chisel subset; {hints[name]}",
            location,
            code="UNSUPPORTED",
        )
    if name in ("Seq", "List", "Array"):
        if extra:
            raise ChiselError.at(
                f"{name}(...) does not take a second argument list", location, code="A3"
            )
        return list(args)
    if name == "Range":
        if len(args) == 2:
            return range(_require_int(args[0], location, "Range"), _require_int(args[1], location, "Range"))
        raise ChiselError.at("Range(start, end) expects 2 arguments", location, code="A3")

    raise elab._not_found_error(name, scope, location)


def _make_int_type(args: list[object], location: SourceLocation, signed: bool) -> v.HwType:
    kind = "SInt" if signed else "UInt"
    if not args:
        return v.SIntT(None) if signed else v.UIntT(None)
    arg = args[0]
    if isinstance(arg, v.Width):
        return v.SIntT(arg.value) if signed else v.UIntT(arg.value)
    if isinstance(arg, int):
        raise ChiselError.at(
            f"{kind} width must be a Width — write {kind}({arg}.W) instead of {kind}({arg})",
            location,
            code="A3",
        )
    raise ChiselError.at(
        f"{kind}(...) expects a width (e.g. {kind}(8.W)), found {v.describe_value(arg)}",
        location,
        code="A3",
    )


def _make_io(elab, args: list[object], location: SourceLocation, ctx, name_hint: str | None):
    if not args:
        raise ChiselError.at("IO(...) requires an argument", location, code="A3")
    arg = args[0]
    prefix = name_hint or "io"
    if isinstance(arg, v.BundleT):
        view = v.BundleView()
        for field in arg.fields:
            member = _make_io_field(ctx, prefix, field, location)
            view.members[field.name] = member
        return view
    if isinstance(arg, v.Directed):
        port_name = ctx.namer.reserve(prefix)
        direction = ir.INPUT if arg.direction == "input" else ir.OUTPUT
        ctx.ports.append(ir.Port(port_name, direction, arg.tpe.to_firrtl(), location))
        binding = v.BINDING_PORT_IN if arg.direction == "input" else v.BINDING_PORT_OUT
        return v.HwValue(ir.Reference(port_name), arg.tpe, binding)
    if isinstance(arg, v.HwType):
        raise ChiselError.at(
            "IO(...) requires a direction: wrap the type in Input(...) or Output(...)",
            location,
            code="B2",
        )
    raise ChiselError.at(
        f"IO(...) expects a Chisel type, found {v.describe_value(arg)}", location, code="B2"
    )


def _make_io_field(ctx, prefix: str, field: v.BundleFieldT, location: SourceLocation):
    name = f"{prefix}_{field.name}"
    direction = field.direction or "output"
    if isinstance(field.tpe, v.BundleT):
        view = v.BundleView()
        for sub in field.tpe.fields:
            effective = v.BundleFieldT(sub.name, sub.tpe, sub.direction or direction)
            view.members[sub.name] = _make_io_field(ctx, name, effective, location)
        return view
    port_name = ctx.namer.reserve(name)
    ir_direction = ir.INPUT if direction == "input" else ir.OUTPUT
    ctx.ports.append(ir.Port(port_name, ir_direction, field.tpe.to_firrtl(), location))
    binding = v.BINDING_PORT_IN if direction == "input" else v.BINDING_PORT_OUT
    return v.HwValue(ir.Reference(port_name), field.tpe, binding)


def _make_wire(args, location, ctx, name_hint, default):
    if not args:
        raise ChiselError.at("Wire(...) requires a type argument", location, code="A3")
    tpe = _require_type(args[0], location, "Wire")
    name = ctx.namer.reserve(name_hint or "_WIRE")
    ctx.emit(ir.DefWire(name, tpe.to_firrtl(), location, has_default=default is not None))
    wire = v.HwValue(ir.Reference(name), tpe, v.BINDING_WIRE)
    if default is not None:
        ctx.emit(ir.Connect(wire.expr, default.expr, location))
    return wire


def _make_wire_default(elab, args, location, ctx, name_hint):
    if not args:
        raise ChiselError.at("WireDefault(...) requires an argument", location, code="A3")
    if len(args) == 1:
        init = _require_hw(args[0], location, "WireDefault")
        return _make_wire([init.tpe], location, ctx, name_hint, default=init)
    tpe = _require_type(args[0], location, "WireDefault")
    init = _require_hw(args[1], location, "WireDefault")
    return _make_wire([tpe], location, ctx, name_hint, default=init)


def _implicit_clock(ctx, location: SourceLocation) -> ir.Expr:
    clock = ctx.current_clock()
    if clock is None:
        raise ChiselError.at(
            "No implicit clock. A register was defined outside an implicit clock "
            "domain — wrap the definition in withClock(...) { ... }",
            location,
            code="C1",
        )
    return clock.expr


def _implicit_reset(ctx, location: SourceLocation) -> ir.Expr:
    reset = ctx.current_reset()
    if reset is None:
        raise ChiselError.at(
            "No implicit reset. RegInit was used outside an implicit reset domain — "
            "wrap the definition in withReset(...) { ... }",
            location,
            code="C1",
        )
    return reset.expr


def _make_reg(args, location, ctx, name_hint):
    if not args:
        raise ChiselError.at("Reg(...) requires a type argument", location, code="A3")
    tpe = _require_type(args[0], location, "Reg")
    clock = _implicit_clock(ctx, location)
    name = ctx.namer.reserve(name_hint or "_REG")
    ctx.emit(ir.DefRegister(name, tpe.to_firrtl(), clock, None, None, location))
    return v.HwValue(ir.Reference(name), tpe, v.BINDING_REG)


def _make_reg_init(args, location, ctx, name_hint):
    if not args:
        raise ChiselError.at("RegInit(...) requires an argument", location, code="A3")
    if len(args) == 1:
        init = _require_hw(args[0], location, "RegInit")
        tpe = init.tpe
    else:
        tpe = _require_type(args[0], location, "RegInit")
        init = _require_hw(args[1], location, "RegInit")
    clock = _implicit_clock(ctx, location)
    reset = _implicit_reset(ctx, location)
    name = ctx.namer.reserve(name_hint or "_REG")
    ctx.emit(ir.DefRegister(name, tpe.to_firrtl(), clock, reset, init.expr, location))
    return v.HwValue(ir.Reference(name), tpe, v.BINDING_REG)


def _make_reg_next(args, location, ctx, name_hint):
    if not args:
        raise ChiselError.at("RegNext(...) requires an argument", location, code="A3")
    next_value = _require_hw(args[0], location, "RegNext")
    clock = _implicit_clock(ctx, location)
    name = ctx.namer.reserve(name_hint or "_REG")
    if len(args) >= 2:
        init = _require_hw(args[1], location, "RegNext")
        reset = _implicit_reset(ctx, location)
        ctx.emit(
            ir.DefRegister(name, next_value.tpe.to_firrtl(), clock, reset, init.expr, location)
        )
    else:
        ctx.emit(ir.DefRegister(name, next_value.tpe.to_firrtl(), clock, None, None, location))
    reg = v.HwValue(ir.Reference(name), next_value.tpe, v.BINDING_REG)
    ctx.emit(ir.Connect(reg.expr, next_value.expr, location))
    return reg


def _make_reg_enable(args, location, ctx, name_hint):
    if len(args) < 2:
        raise ChiselError.at("RegEnable(next, enable) requires 2 arguments", location, code="A3")
    next_value = _require_hw(args[0], location, "RegEnable")
    enable = _require_hw(args[-1], location, "RegEnable")
    clock = _implicit_clock(ctx, location)
    name = ctx.namer.reserve(name_hint or "_REG")
    ctx.emit(ir.DefRegister(name, next_value.tpe.to_firrtl(), clock, None, None, location))
    reg = v.HwValue(ir.Reference(name), next_value.tpe, v.BINDING_REG)
    conditional = ir.Conditionally(enable.expr, ir.Block([ir.Connect(reg.expr, next_value.expr, location)]), ir.Block(), location)
    ctx.emit(conditional)
    return reg


def _make_mux(elab, args, location):
    if len(args) != 3:
        raise ChiselError.at(
            f"Mux(cond, tval, fval) expects 3 arguments, found {len(args)}",
            location,
            code="A3",
        )
    condition = args[0]
    if not isinstance(condition, v.HwValue) or not isinstance(
        condition.tpe, (v.BoolT, v.UIntT)
    ):
        raise ChiselError.at(
            f"type mismatch;\n found   : {v.describe_value(condition)}\n required: chisel3.Bool",
            location,
            code="B5",
        )
    if isinstance(condition.tpe, v.UIntT) and condition.tpe.width not in (1, None):
        raise ChiselError.at(
            "type mismatch;\n found   : chisel3.UInt\n required: chisel3.Bool\n"
            "Mux condition must be a Bool",
            location,
            code="B5",
        )
    true_value = _require_hw(args[1], location, "Mux")
    false_value = _require_hw(args[2], location, "Mux")
    result_type = _merge_types(true_value.tpe, false_value.tpe, location)
    return v.HwValue(
        ir.Mux(condition.expr, true_value.expr, false_value.expr), result_type, v.BINDING_OP
    )


def _flatten_cat_args(args: list[object], location: SourceLocation) -> list[v.HwValue]:
    flat: list[v.HwValue] = []
    for arg in args:
        if isinstance(arg, (list, tuple)):
            flat.extend(_flatten_cat_args(list(arg), location))
        elif isinstance(arg, v.HwValue) and isinstance(arg.tpe, v.VecT):
            # Cat(vec) concatenates with the last element as MSB.
            for index in reversed(range(arg.tpe.size)):
                flat.append(
                    v.HwValue(ir.SubIndex(arg.expr, index), arg.tpe.element, arg.binding)
                )
        else:
            flat.append(_require_hw(arg, location, "Cat"))
    return flat


def _make_cat(args, location):
    flat = _flatten_cat_args(args, location)
    if not flat:
        raise ChiselError.at("Cat(...) requires at least one argument", location, code="A3")
    result = flat[0]
    width = _type_width(result.tpe)
    for operand in flat[1:]:
        operand_width = _type_width(operand.tpe)
        width = None if width is None or operand_width is None else width + operand_width
        result = v.HwValue(
            ir.DoPrim("cat", (result.expr, operand.expr)), v.UIntT(width), v.BINDING_OP
        )
    if len(flat) == 1:
        result = v.HwValue(
            ir.DoPrim("asUInt", (result.expr,)), v.UIntT(_type_width(result.tpe)), v.BINDING_OP
        )
    return result


def _make_fill(args, location):
    if len(args) != 2:
        raise ChiselError.at("Fill(n, x) expects 2 arguments", location, code="A3")
    count = _require_int(args[0], location, "Fill count")
    operand = _require_hw(args[1], location, "Fill")
    if count <= 0:
        raise ChiselError.at("Fill count must be positive", location, code="A3")
    result = operand
    width = _type_width(operand.tpe)
    for _ in range(count - 1):
        total = None if width is None or _type_width(result.tpe) is None else width + _type_width(result.tpe)
        result = v.HwValue(
            ir.DoPrim("cat", (result.expr, operand.expr)), v.UIntT(total), v.BINDING_OP
        )
    if count == 1:
        result = v.HwValue(
            ir.DoPrim("asUInt", (operand.expr,)), v.UIntT(width), v.BINDING_OP
        )
    return result


def _make_vecinit(args, location, ctx, name_hint):
    elements: list[object] = []
    if len(args) == 1 and isinstance(args[0], (list, tuple)):
        elements = list(args[0])
    else:
        elements = list(args)
    if not elements:
        raise ChiselError.at("VecInit(...) requires at least one element", location, code="A3")
    hw_elements = [_require_hw(e, location, "VecInit") for e in elements]
    element_type: v.HwType = hw_elements[0].tpe
    for element in hw_elements[1:]:
        element_type = _merge_types(element_type, element.tpe, location)
    vec_type = v.VecT(len(hw_elements), element_type)
    name = ctx.namer.reserve(name_hint or "_VEC")
    ctx.emit(ir.DefWire(name, vec_type.to_firrtl(), location, has_default=True))
    vec = v.HwValue(ir.Reference(name), vec_type, v.BINDING_WIRE)
    for index, element in enumerate(hw_elements):
        ctx.emit(ir.Connect(ir.SubIndex(vec.expr, index), element.expr, location))
    return vec


def _make_mem(args, location, ctx, name_hint, sync_read):
    kind = "SyncReadMem" if sync_read else "Mem"
    if len(args) != 2:
        raise ChiselError.at(
            f"{kind}(size, t) expects 2 arguments, found {len(args)}", location, code="A3"
        )
    size = _require_int(args[0], location, f"{kind} size")
    if size < 1:
        raise ChiselError.at(
            f"{kind} size must be a positive Int, found {size}", location, code="A3"
        )
    element = _require_type(args[1], location, f"{kind} element")
    if not isinstance(element, (v.UIntT, v.SIntT, v.BoolT)):
        raise ChiselError.at(
            f"{kind} elements must be ground types (UInt, SInt or Bool) in this "
            f"Chisel subset, found {element.chisel_name()}",
            location,
            code="UNSUPPORTED",
        )
    if _type_width(element) is None:
        raise ChiselError.at(
            f"{kind} element type must have an explicit width (e.g. UInt(8.W))",
            location,
            code="A3",
        )
    clock = _implicit_clock(ctx, location)
    mem_name = ctx.namer.reserve(name_hint or "_MEM")
    ctx.emit(ir.DefMemory(mem_name, element.to_firrtl(), size, sync_read, clock, location))
    return v.MemValue(mem_name, element, size, sync_read)


def _mem_addr(mem: v.MemValue, arg: object, location: SourceLocation) -> v.HwValue:
    addr = _require_hw(arg, location, f"{mem.kind_name()} address")
    if not isinstance(addr.tpe, (v.UIntT, v.BoolT)):
        raise ChiselError.at(
            f"type mismatch;\n found   : {addr.type_name()}\n required: chisel3.UInt\n"
            f"{mem.kind_name()} addresses must be UInt",
            location,
            code="B5",
        )
    return addr


def _mem_access(mem: v.MemValue, addr: v.HwValue) -> ir.Expr:
    return ir.SubAccess(ir.Reference(mem.name), addr.expr)


def _mem_read(mem: v.MemValue, args, location, ctx, name_hint):
    if not args:
        raise ChiselError.at(
            f"{mem.kind_name()}.read(addr) requires an address argument", location, code="A3"
        )
    addr = _mem_addr(mem, args[0], location)
    if not mem.sync_read:
        if len(args) != 1:
            raise ChiselError.at(
                "Mem.read(addr) expects 1 argument; the enable variant is only "
                "available on SyncReadMem",
                location,
                code="A3",
            )
        # Combinational read; the SubAccess stays a legal connect target so
        # ``mem(addr) := data`` works through the same value.
        return v.HwValue(_mem_access(mem, addr), mem.element, v.BINDING_WIRE)
    if len(args) > 2:
        raise ChiselError.at(
            f"SyncReadMem.read expects (addr) or (addr, enable), found {len(args)} "
            "arguments",
            location,
            code="A3",
        )
    enable = None
    if len(args) == 2:
        enable = _require_hw(args[1], location, "SyncReadMem.read enable")
        if not isinstance(enable.tpe, v.BoolT) and _type_width(enable.tpe) not in (1, None):
            raise ChiselError.at(
                f"type mismatch;\n found   : {enable.type_name()}\n required: chisel3.Bool",
                location,
                code="B5",
            )
    # Synchronous read: a hidden register captures the addressed element, so
    # the value observed is the memory contents *before* this edge's writes
    # (read-first semantics in every backend).
    clock = _implicit_clock(ctx, location)
    reg_name = ctx.namer.reserve(name_hint or "_MEM_rd")
    ctx.emit(ir.DefRegister(reg_name, mem.element.to_firrtl(), clock, None, None, location))
    connect = ir.Connect(ir.Reference(reg_name), _mem_access(mem, addr), location)
    if enable is None:
        ctx.emit(connect)
    else:
        ctx.emit(ir.Conditionally(enable.expr, ir.Block([connect]), ir.Block(), location))
    return v.HwValue(ir.Reference(reg_name), mem.element, v.BINDING_NODE)


def _mem_write(mem: v.MemValue, args, location, ctx):
    if len(args) != 2:
        raise ChiselError.at(
            f"{mem.kind_name()}.write(addr, data) expects 2 arguments, found {len(args)}",
            location,
            code="A3",
        )
    addr = _mem_addr(mem, args[0], location)
    data = _require_hw(args[1], location, f"{mem.kind_name()}.write data")
    elem_signed = isinstance(mem.element, v.SIntT)
    data_signed = isinstance(data.tpe, v.SIntT)
    if elem_signed != data_signed:
        raise ChiselError.at(
            f"type mismatch;\n found   : {data.type_name()}\n "
            f"required: {mem.element.chisel_name()}",
            location,
            code="B5",
        )
    ctx.emit(ir.Connect(_mem_access(mem, addr), data.expr, location))
    return None


def _mem_member(elab, mem: v.MemValue, name, args, location, ctx, name_hint):
    if name == "read":
        return _mem_read(mem, args, location, ctx, name_hint)
    if name == "write":
        return _mem_write(mem, args, location, ctx)
    if name == "apply":
        return apply_value(elab, mem, args, location)
    if name in ("length", "size", "depth"):
        return mem.depth
    raise ChiselError.at(
        f"value {name} is not a member of {mem.chisel_name()}", location, code="A1"
    )


# ---------------------------------------------------------------------------
# Member calls (methods and field selection)
# ---------------------------------------------------------------------------


def call_member(
    elab,
    target: object,
    name: str,
    args: list[object],
    type_args: list[str],
    extra_arg_lists: list[list[object]],
    location: SourceLocation,
    scope,
    ctx,
    name_hint: str | None = None,
) -> object:
    # Companion-object style calls (Seq.fill, VecInit.tabulate, math.max, ...).
    if isinstance(target, tuple) and len(target) == 2 and target[0] == "companion":
        return _companion_member(elab, target[1], name, args, extra_arg_lists, location, ctx, name_hint)

    if isinstance(target, bool):
        return _bool_member(target, name, location)
    if isinstance(target, int):
        return _int_member(target, name, args, location)
    if isinstance(target, str):
        return _string_member(target, name, args, location)
    if isinstance(target, (list, tuple)):
        return _seq_member(elab, list(target), name, args, location, ctx)
    if isinstance(target, range):
        return _seq_member(elab, list(target), name, args, location, ctx)
    if isinstance(target, v.BundleView):
        member = _bundle_view_member(target, name, location)
        if args:
            # ``io.field(i)`` — field access followed by application (bit
            # extract or Vec indexing).
            return apply_value(elab, member, args, location)
        return member
    if isinstance(target, v.MemValue):
        return _mem_member(elab, target, name, args, location, ctx, name_hint)
    if isinstance(target, v.HwValue):
        return _hw_member(elab, target, name, args, type_args, location, ctx)
    if isinstance(target, (v.HwType, v.Directed)):
        raise ChiselError.at(
            f"{v.describe_value(target)} must be hardware, not a bare Chisel type. "
            "Perhaps you forgot to wrap it in Wire(_) or IO(_)?",
            location,
            code="B2",
        )
    if isinstance(target, v.Width):
        raise ChiselError.at(
            f"value {name} is not a member of chisel3.internal.firrtl.Width",
            location,
            code="A1",
        )
    raise ChiselError.at(
        f"value {name} is not a member of {v.describe_value(target)}", location, code="A1"
    )


def _companion_member(elab, companion, name, args, extra_arg_lists, location, ctx, name_hint):
    if companion in ("Seq", "List", "Array"):
        if name == "fill":
            count = _require_int(args[0], location, "Seq.fill")
            if not extra_arg_lists or not extra_arg_lists[0]:
                raise ChiselError.at(
                    "Seq.fill(n)(element) requires an element argument list",
                    location,
                    code="A3",
                )
            element = extra_arg_lists[0][0]
            return [element for _ in range(count)]
        if name == "tabulate":
            count = _require_int(args[0], location, "Seq.tabulate")
            if not extra_arg_lists or not extra_arg_lists[0]:
                raise ChiselError.at(
                    "Seq.tabulate(n)(f) requires a function argument list", location, code="A3"
                )
            func = extra_arg_lists[0][0]
            return [_call_lambda(elab, func, [index], ctx, location) for index in range(count)]
        if name == "range":
            start = _require_int(args[0], location, "Seq.range")
            end = _require_int(args[1], location, "Seq.range")
            return list(range(start, end))
        if name == "empty":
            return []
    if companion in ("Vec", "VecInit"):
        if name == "fill":
            count = _require_int(args[0], location, f"{companion}.fill")
            element = extra_arg_lists[0][0] if extra_arg_lists and extra_arg_lists[0] else None
            if companion == "Vec":
                tpe = _require_type(element, location, "Vec.fill")
                return v.VecT(count, tpe)
            if element is None:
                raise ChiselError.at("VecInit.fill(n)(element) requires an element", location, code="A3")
            return _make_vecinit([[element] * count], location, ctx, name_hint)
        if name == "tabulate":
            count = _require_int(args[0], location, f"{companion}.tabulate")
            func = extra_arg_lists[0][0] if extra_arg_lists and extra_arg_lists[0] else None
            elements = [_call_lambda(elab, func, [index], ctx, location) for index in range(count)]
            return _make_vecinit([elements], location, ctx, name_hint)
    if companion == "math":
        if name == "max":
            return max(_require_int(args[0], location, "math.max"), _require_int(args[1], location, "math.max"))
        if name == "min":
            return min(_require_int(args[0], location, "math.min"), _require_int(args[1], location, "math.min"))
        if name == "pow":
            return int(math.pow(args[0], args[1]))
    raise ChiselError.at(
        f"value {name} is not a member of object {companion}", location, code="A1"
    )


def _bool_member(target: bool, name: str, location: SourceLocation) -> object:
    if name == "B":
        return _bool_lit(target)
    if name == "asBool":
        return _bool_lit(target)
    if name == "U":
        return _uint_lit(1 if target else 0, 1)
    raise ChiselError.at(f"value {name} is not a member of Boolean", location, code="A1")


def _literal_text(value: int) -> str:
    """``value`` in decimal, or abbreviated hex past the int -> str digit limit."""
    try:
        return str(value)
    except ValueError:
        digits = f"{abs(value):x}"
        sign = "-" if value < 0 else ""
        return f"{sign}0x{digits[:8]}...{digits[-8:]} ({abs(value).bit_length()} bits)"


def _int_member(target: int, name: str, args: list[object], location: SourceLocation) -> object:
    if name == "U":
        width = None
        if args and isinstance(args[0], v.Width):
            width = args[0].value
            if width < min_width_for(target):
                raise ChiselError.at(
                    f"literal {_literal_text(target)} does not fit in {width} bits",
                    location,
                    code="A3",
                )
        if target < 0:
            raise ChiselError.at(
                f"UInt literal {_literal_text(target)} is negative; use .S for signed literals",
                location,
                code="A3",
            )
        return _uint_lit(target, width)
    if name == "S":
        width = None
        if args and isinstance(args[0], v.Width):
            width = args[0].value
        return _sint_lit(target, width)
    if name == "B":
        if target in (0, 1):
            return _bool_lit(bool(target))
        raise ChiselError.at(
            f"cannot convert {_literal_text(target)} to Bool with .B", location, code="A3"
        )
    if name == "W":
        if target < 0:
            raise ChiselError.at("width must be non-negative", location, code="A3")
        return v.Width(target)
    if name == "asUInt":
        return _uint_lit(target, None)
    if name in ("to", "until"):
        if not args:
            raise ChiselError.at(f"{name} requires an argument", location, code="A3")
        end = _require_int(args[0], location, name)
        return range(target, end + 1) if name == "to" else range(target, end)
    if name in ("min", "max"):
        other = _require_int(args[0], location, name)
        return min(target, other) if name == "min" else max(target, other)
    if name == "toInt":
        return target
    if name == "abs":
        return abs(target)
    raise ChiselError.at(f"value {name} is not a member of Int", location, code="A1")


def _string_member(target: str, name: str, args: list[object], location: SourceLocation) -> object:
    if name in ("U", "S"):
        try:
            bits = parse_literal(target, signed=(name == "S"))
        except LiteralError as exc:
            raise ChiselError.at(str(exc), location, code="A3") from None
        width = bits.width
        if args and isinstance(args[0], v.Width):
            if args[0].value < width:
                raise ChiselError.at(
                    f"literal \"{target}\" does not fit in {args[0].value} bits",
                    location,
                    code="A3",
                )
            width = args[0].value
        if name == "U":
            return _uint_lit(bits.value, width)
        return _sint_lit(bits.as_int, width)
    if name == "length":
        return len(target)
    raise ChiselError.at(f"value {name} is not a member of String", location, code="A1")


def _seq_member(elab, items: list[object], name: str, args: list[object], location, ctx) -> object:
    if name == "map":
        return [_call_lambda(elab, args[0], [item], ctx, location) for item in items]
    if name == "foreach":
        for item in items:
            _call_lambda(elab, args[0], [item], ctx, location)
        return None
    if name == "filter":
        return [item for item in items if _call_lambda(elab, args[0], [item], ctx, location)]
    if name == "reduce":
        if not items:
            raise ChiselError.at("reduce of empty sequence", location, code="A3")
        accumulator = items[0]
        for item in items[1:]:
            accumulator = _call_lambda(elab, args[0], [accumulator, item], ctx, location)
        return accumulator
    if name == "foldLeft":
        accumulator = args[0]
        # foldLeft(z)(f) — the function arrives through apply_value on the result.
        return ("foldLeft", items, accumulator)
    if name == "zipWithIndex":
        return [(item, index) for index, item in enumerate(items)]
    if name in ("length", "size"):
        return len(items)
    if name == "indices":
        return range(len(items))
    if name == "reverse":
        return list(reversed(items))
    if name == "sum":
        return sum(items)
    if name == "head":
        return items[0]
    if name == "last":
        return items[-1]
    if name == "take":
        return items[: _require_int(args[0], location, "take")]
    if name == "drop":
        return items[_require_int(args[0], location, "drop"):]
    if name == "contains":
        return args[0] in items
    if name == "isEmpty":
        return len(items) == 0
    if name == "nonEmpty":
        return len(items) > 0
    if name == "apply":
        return apply_value(elab, items, args, location)
    raise ChiselError.at(f"value {name} is not a member of Seq", location, code="A1")


def _bundle_view_member(view: v.BundleView, name: str, location: SourceLocation) -> object:
    member = view.member(name)
    if member is None:
        import difflib

        matches = difflib.get_close_matches(name, list(view.members), n=1)
        hint = f" Did you mean {matches[0]}?" if matches else ""
        raise ChiselError.at(
            f"value {name} is not a member of the IO Bundle.{hint}", location, code="A1"
        )
    return member


def _hw_member(elab, target: v.HwValue, name: str, args, type_args, location, ctx) -> object:
    tpe = target.tpe

    # Bundle field access on a wire/reg of bundle type.
    if isinstance(tpe, v.BundleT):
        field = tpe.field_named(name)
        if field is not None:
            member = v.HwValue(ir.SubField(target.expr, name), field.tpe, target.binding)
            if args:
                return apply_value(elab, member, args, location)
            return member

    if name == "asInstanceOf":
        requested = type_args[0] if type_args else "Data"
        raise ChiselError.at(
            f"class {tpe.chisel_name()} cannot be cast to class chisel3.{requested}; "
            f"use .as{requested}() instead of asInstanceOf",
            location,
            code="A2",
        )
    if name == "asUInt":
        if isinstance(tpe, v.VecT):
            return _vec_as_uint(target, location)
        width = _type_width(tpe)
        return v.HwValue(ir.DoPrim("asUInt", (target.expr,)), v.UIntT(width), v.BINDING_OP)
    if name == "asSInt":
        width = _type_width(tpe)
        return v.HwValue(ir.DoPrim("asSInt", (target.expr,)), v.SIntT(width), v.BINDING_OP)
    if name == "asBool":
        width = _type_width(tpe)
        if width not in (1, None):
            raise ChiselError.at(
                f"cannot call asBool on a {width}-bit value; asBool requires a 1-bit value",
                location,
                code="B5",
            )
        return v.HwValue(target.expr, v.BoolT(), target.binding)
    if name == "asClock":
        if isinstance(tpe, v.BoolT):
            return v.HwValue(ir.DoPrim("asClock", (target.expr,)), v.ClockT(), v.BINDING_OP)
        raise ChiselError.at(
            f"value asClock is not a member of {tpe.chisel_name()}",
            location,
            code="B6",
        )
    if name == "asAsyncReset":
        if isinstance(tpe, v.BoolT):
            return v.HwValue(
                ir.DoPrim("asAsyncReset", (target.expr,)), v.AsyncResetT(), v.BINDING_OP
            )
        raise ChiselError.at(
            f"value asAsyncReset is not a member of {tpe.chisel_name()}", location, code="B6"
        )
    if name == "asTypeOf":
        if args and isinstance(args[0], (v.HwType, v.Directed)):
            requested = args[0].tpe if isinstance(args[0], v.Directed) else args[0]
            width = _type_width(requested)
            if isinstance(requested, v.SIntT):
                return v.HwValue(ir.DoPrim("asSInt", (target.expr,)), requested, v.BINDING_OP)
            return v.HwValue(ir.DoPrim("asUInt", (target.expr,)), v.UIntT(width), v.BINDING_OP)
        raise ChiselError.at("asTypeOf expects a Chisel type argument", location, code="A3")
    if name in ("andR", "orR", "xorR"):
        op = {"andR": "andr", "orR": "orr", "xorR": "xorr"}[name]
        return v.HwValue(ir.DoPrim(op, (target.expr,)), v.BoolT(), v.BINDING_OP)
    if name == "litValue":
        if isinstance(target.expr, (ir.UIntLiteral, ir.SIntLiteral)):
            return target.expr.value
        raise ChiselError.at(
            "litValue can only be called on a literal; this value is not a compile-time "
            "constant",
            location,
            code="A3",
        )
    if name == "getWidth":
        width = _type_width(tpe)
        if width is None:
            raise ChiselError.at("width of this value is not yet inferred", location, code="A3")
        return width
    if name in ("pad",):
        amount = _require_int(args[0], location, "pad")
        width = _type_width(tpe)
        new_width = None if width is None else max(width, amount)
        result_type = v.SIntT(new_width) if isinstance(tpe, v.SIntT) else v.UIntT(new_width)
        return v.HwValue(
            ir.DoPrim("pad", (target.expr,), (amount,)), result_type, v.BINDING_OP
        )
    if name == "head":
        amount = _require_int(args[0], location, "head")
        return v.HwValue(
            ir.DoPrim("head", (target.expr,), (amount,)), v.UIntT(amount), v.BINDING_OP
        )
    if name == "tail":
        amount = _require_int(args[0], location, "tail")
        width = _type_width(tpe)
        new_width = None if width is None else max(width - amount, 0)
        return v.HwValue(
            ir.DoPrim("tail", (target.expr,), (amount,)), v.UIntT(new_width), v.BINDING_OP
        )
    if name == "apply":
        return apply_value(elab, target, args, location)

    # Vec-specific collection methods.
    if isinstance(tpe, v.VecT):
        elements = [
            v.HwValue(ir.SubIndex(target.expr, index), tpe.element, target.binding)
            for index in range(tpe.size)
        ]
        if name in ("map", "foreach", "reduce", "filter", "zipWithIndex", "length",
                    "size", "indices", "reverse", "head", "last", "contains",
                    "isEmpty", "nonEmpty", "take", "drop"):
            return _seq_member(elab, elements, name, args, location, ctx)

    if name in ("U", "S", "B", "W"):
        raise ChiselError.at(
            f"value {name} is not a member of {tpe.chisel_name()}; .{name} applies to "
            "Scala literals, not hardware values",
            location,
            code="A1",
        )
    raise ChiselError.at(
        f"value {name} is not a member of {tpe.chisel_name()}", location, code="A1"
    )


def _vec_as_uint(target: v.HwValue, location: SourceLocation) -> v.HwValue:
    tpe = target.tpe
    assert isinstance(tpe, v.VecT)
    element_width = _type_width(tpe.element)
    result: v.HwValue | None = None
    width = 0 if element_width is not None else None
    # Element 0 is the least-significant chunk.
    for index in range(tpe.size):
        element = v.HwValue(ir.SubIndex(target.expr, index), tpe.element, target.binding)
        if result is None:
            result = element
            width = element_width
        else:
            width = None if width is None or element_width is None else width + element_width
            result = v.HwValue(
                ir.DoPrim("cat", (element.expr, result.expr)), v.UIntT(width), v.BINDING_OP
            )
    assert result is not None
    if tpe.size == 1:
        return v.HwValue(
            ir.DoPrim("asUInt", (result.expr,)), v.UIntT(element_width), v.BINDING_OP
        )
    return result


# ---------------------------------------------------------------------------
# Application: expr(args)
# ---------------------------------------------------------------------------


def apply_value(elab, target: object, args: list[object], location: SourceLocation) -> object:
    if isinstance(target, tuple) and len(target) == 3 and target[0] == "lambda":
        # Direct application of a lambda value.
        return _call_lambda(elab, target, args, None, location)
    if isinstance(target, tuple) and len(target) == 3 and target[0] == "foldLeft":
        _, items, accumulator = target
        func = args[0]
        for item in items:
            accumulator = _call_lambda(elab, func, [accumulator, item], None, location)
        return accumulator
    if isinstance(target, (list, tuple)):
        items = list(target)
        if len(args) != 1:
            raise ChiselError.at(
                f"Too many arguments. Found {len(args)}, expected 1 for method apply: (i: Int)",
                location,
                code="A3",
            )
        index = _require_int(args[0], location, "Seq apply")
        if index < 0 or index >= len(items):
            raise ChiselError.at(
                f"{index} is out of bounds (min 0, max {len(items) - 1})", location, code="B7"
            )
        return items[index]
    if isinstance(target, range):
        return apply_value(elab, list(target), args, location)
    if isinstance(target, v.BundleView):
        raise ChiselError.at(
            "an IO bundle cannot be applied; access its fields with .fieldName",
            location,
            code="A3",
        )
    if isinstance(target, (v.HwType, v.Directed)):
        raise ChiselError.at(
            f"{v.describe_value(target)} must be hardware, not a bare Chisel type. "
            "Perhaps you forgot to wrap it in Wire(_) or IO(_)?",
            location,
            code="B2",
        )
    if isinstance(target, v.MemValue):
        if target.sync_read:
            raise ChiselError.at(
                "SyncReadMem(addr) is ambiguous in this Chisel subset (the apply "
                "form mixes a synchronous read port with a combinational write "
                "address); use .read(addr) and .write(addr, data) instead",
                location,
                code="UNSUPPORTED",
            )
        if len(args) != 1:
            raise ChiselError.at(
                f"Too many arguments. Found {len(args)}, expected 1 for method "
                "apply: (addr: UInt)",
                location,
                code="A3",
            )
        addr = _mem_addr(target, args[0], location)
        return v.HwValue(_mem_access(target, addr), target.element, v.BINDING_WIRE)
    if isinstance(target, v.HwValue):
        return _apply_hw(target, args, location)
    raise ChiselError.at(
        f"{v.describe_value(target)} cannot be applied", location, code="A3"
    )


def _apply_hw(target: v.HwValue, args: list[object], location: SourceLocation) -> object:
    tpe = target.tpe
    if isinstance(tpe, v.VecT):
        if len(args) != 1:
            raise ChiselError.at(
                f"Too many arguments. Found {len(args)}, expected 1 for method apply: (i: Int)",
                location,
                code="A3",
            )
        index = args[0]
        if isinstance(index, v.HwValue):
            return v.HwValue(ir.SubAccess(target.expr, index.expr), tpe.element, target.binding)
        index_int = _require_int(index, location, "Vec index")
        if index_int < 0 or index_int >= tpe.size:
            raise ChiselError.at(
                f"{index_int} is out of bounds (min 0, max {tpe.size - 1})",
                location,
                code="B7",
            )
        return v.HwValue(ir.SubIndex(target.expr, index_int), tpe.element, target.binding)
    if isinstance(tpe, (v.UIntT, v.SIntT, v.BoolT)):
        width = _type_width(tpe)
        if len(args) == 1:
            index = args[0]
            if isinstance(index, v.HwValue):
                shifted = ir.DoPrim("dshr", (target.expr, index.expr))
                return v.HwValue(
                    ir.DoPrim("bits", (shifted,), (0, 0)), v.BoolT(), v.BINDING_OP
                )
            index_int = _require_int(index, location, "bit index")
            if index_int < 0 or (width is not None and index_int >= width):
                max_index = "?" if width is None else str(width - 1)
                raise ChiselError.at(
                    f"{index_int} is out of bounds (min 0, max {max_index})",
                    location,
                    code="B7",
                )
            return v.HwValue(
                ir.DoPrim("bits", (target.expr,), (index_int, index_int)),
                v.BoolT(),
                v.BINDING_OP,
            )
        if len(args) == 2:
            hi_arg, lo_arg = args
            if isinstance(hi_arg, v.HwValue) or isinstance(lo_arg, v.HwValue):
                hi_name = hi_arg.type_name() if isinstance(hi_arg, v.HwValue) else "Int"
                lo_name = lo_arg.type_name() if isinstance(lo_arg, v.HwValue) else "Int"
                raise ChiselError.at(
                    "overloaded method apply with alternatives:\n"
                    "  (x: BigInt, y: BigInt)chisel3.UInt <and>\n"
                    "  (x: Int, y: Int)chisel3.UInt\n"
                    f" cannot be applied to ({hi_name}, {lo_name})\n"
                    "bit-extract bounds must be compile-time Scala Ints",
                    location,
                    code="A3",
                )
            hi = _require_int(hi_arg, location, "bit extract")
            lo = _require_int(lo_arg, location, "bit extract")
            if lo < 0 or hi < lo or (width is not None and hi >= width):
                max_index = "?" if width is None else str(width - 1)
                raise ChiselError.at(
                    f"bit range [{hi}:{lo}] is out of bounds (min 0, max {max_index})",
                    location,
                    code="B7",
                )
            return v.HwValue(
                ir.DoPrim("bits", (target.expr,), (hi, lo)),
                v.UIntT(hi - lo + 1),
                v.BINDING_OP,
            )
        raise ChiselError.at(
            f"Too many arguments. Found {len(args)}, expected 1 or 2 for method apply",
            location,
            code="A3",
        )
    raise ChiselError.at(
        f"values of type {tpe.chisel_name()} cannot be indexed", location, code="A3"
    )


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

_ARITH_OPS = {"+", "-", "*", "/", "%", "+&", "-&", "+%", "-%"}
_COMPARE_OPS = {"<", ">", "<=", ">="}


def binary_op(elab, op: str, left: object, right: object, location: SourceLocation) -> object:
    left_hw = isinstance(left, v.HwValue)
    right_hw = isinstance(right, v.HwValue)

    if isinstance(left, (v.HwType, v.Directed)) or isinstance(right, (v.HwType, v.Directed)):
        offender = left if isinstance(left, (v.HwType, v.Directed)) else right
        raise ChiselError.at(
            f"{v.describe_value(offender)} must be hardware, not a bare Chisel type. "
            "Perhaps you forgot to wrap it in Wire(_) or IO(_)?",
            location,
            code="B2",
        )

    if not left_hw and not right_hw:
        return _scala_binary(op, left, right, location)

    # Static shift amounts may be Scala Ints.
    if op in ("<<", ">>") and left_hw and isinstance(right, int) and not isinstance(right, bool):
        return _hw_shift_const(left, op, right)

    if left_hw != right_hw:
        scala_side = right if left_hw else left
        hw_side = left if left_hw else right
        raise ChiselError.at(
            f"type mismatch;\n found   : {v.describe_value(scala_side)}\n "
            f"required: {hw_side.type_name()}\n"
            f"operator {op} cannot mix hardware and Scala values — convert the literal "
            "with .U / .S / .B",
            location,
            code="B5",
        )

    return _hw_binary(op, left, right, location)


def _scala_binary(op: str, left: object, right: object, location: SourceLocation) -> object:
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left // right if isinstance(left, int) and isinstance(right, int) else left / right
        if op == "%":
            return left % right
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right
        if op == ">":
            return left > right
        if op == "<=":
            return left <= right
        if op == ">=":
            return left >= right
        if op == "&&":
            return bool(left) and bool(right)
        if op == "||":
            return bool(left) or bool(right)
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "^":
            return left ^ right
        if op == "<<":
            return left << right
        if op == ">>":
            return left >> right
        if op == "until":
            return range(left, right)
        if op == "to":
            return range(left, right + 1)
        if op == "min":
            return min(left, right)
        if op == "max":
            return max(left, right)
        if op in ("===", "=/="):
            raise ChiselError.at(
                f"value {op} is not a member of {v.describe_value(left)}; === compares "
                "hardware values, use == for Scala values",
                location,
                code="A1",
            )
    except TypeError as exc:
        raise ChiselError.at(
            f"type mismatch in Scala expression: {exc}", location, code="B5"
        ) from None
    except ZeroDivisionError:
        raise ChiselError.at("division by zero in Scala expression", location, code="B5") from None
    raise ChiselError.at(f"unsupported Scala operator {op}", location, code="PARSE")


def _hw_shift_const(left: v.HwValue, op: str, amount: int) -> v.HwValue:
    width = _type_width(left.tpe)
    if op == "<<":
        new_width = None if width is None else width + amount
        prim = ir.DoPrim("shl", (left.expr,), (amount,))
    else:
        new_width = None if width is None else max(width - amount, 1)
        prim = ir.DoPrim("shr", (left.expr,), (amount,))
    result_type = v.SIntT(new_width) if isinstance(left.tpe, v.SIntT) else v.UIntT(new_width)
    return v.HwValue(prim, result_type, v.BINDING_OP)


def _hw_binary(op: str, left: v.HwValue, right: v.HwValue, location: SourceLocation) -> v.HwValue:
    left_type, right_type = left.tpe, right.tpe

    if isinstance(left_type, v.ClockT) or isinstance(right_type, v.ClockT):
        raise ChiselError.at(
            f"value {op} is not a member of chisel3.Clock; convert with asUInt first",
            location,
            code="B6",
        )

    if op in ("==", "!="):
        raise ChiselError.at(
            f"hardware values cannot be compared with {op}; use "
            f"{'===' if op == '==' else '=/='} for hardware equality",
            location,
            code="A2",
        )

    if op in _ARITH_OPS and (isinstance(left_type, v.BoolT) or isinstance(right_type, v.BoolT)):
        raise ChiselError.at(
            "type mismatch;\n found   : chisel3.Bool\n required: chisel3.UInt\n"
            f"operator {op} is not defined on Bool — convert with .asUInt first",
            location,
            code="B5",
        )

    if op in ("&&", "||"):
        for side in (left, right):
            if not isinstance(side.tpe, v.BoolT) and _type_width(side.tpe) not in (1, None):
                raise ChiselError.at(
                    f"type mismatch;\n found   : {side.type_name()}\n required: chisel3.Bool",
                    location,
                    code="B5",
                )
        prim = "and" if op == "&&" else "or"
        return v.HwValue(ir.DoPrim(prim, (left.expr, right.expr)), v.BoolT(), v.BINDING_OP)

    left_width, right_width = _type_width(left_type), _type_width(right_type)
    max_width = None if left_width is None or right_width is None else max(left_width, right_width)
    both_signed = isinstance(left_type, v.SIntT) and isinstance(right_type, v.SIntT)

    def numeric_type(width: int | None) -> v.HwType:
        return v.SIntT(width) if both_signed else v.UIntT(width)

    if op in ("===", "=/="):
        prim = "eq" if op == "===" else "neq"
        return v.HwValue(ir.DoPrim(prim, (left.expr, right.expr)), v.BoolT(), v.BINDING_OP)
    if op in _COMPARE_OPS:
        prim = {"<": "lt", ">": "gt", "<=": "leq", ">=": "geq"}[op]
        return v.HwValue(ir.DoPrim(prim, (left.expr, right.expr)), v.BoolT(), v.BINDING_OP)
    if op in ("+", "+%"):
        return v.HwValue(ir.DoPrim("addw", (left.expr, right.expr)), numeric_type(max_width), v.BINDING_OP)
    if op == "+&":
        width = None if max_width is None else max_width + 1
        return v.HwValue(ir.DoPrim("add", (left.expr, right.expr)), numeric_type(width), v.BINDING_OP)
    if op in ("-", "-%"):
        return v.HwValue(ir.DoPrim("subw", (left.expr, right.expr)), numeric_type(max_width), v.BINDING_OP)
    if op == "-&":
        width = None if max_width is None else max_width + 1
        return v.HwValue(ir.DoPrim("sub", (left.expr, right.expr)), numeric_type(width), v.BINDING_OP)
    if op == "*":
        width = None if left_width is None or right_width is None else left_width + right_width
        return v.HwValue(ir.DoPrim("mul", (left.expr, right.expr)), numeric_type(width), v.BINDING_OP)
    if op == "/":
        width = None if left_width is None else left_width + (1 if both_signed else 0)
        return v.HwValue(ir.DoPrim("div", (left.expr, right.expr)), numeric_type(width), v.BINDING_OP)
    if op == "%":
        width = None if left_width is None or right_width is None else min(left_width, right_width)
        return v.HwValue(ir.DoPrim("rem", (left.expr, right.expr)), numeric_type(width), v.BINDING_OP)
    if op in ("&", "|", "^"):
        prim = {"&": "and", "|": "or", "^": "xor"}[op]
        result_type: v.HwType
        if isinstance(left_type, v.BoolT) and isinstance(right_type, v.BoolT):
            result_type = v.BoolT()
        else:
            result_type = v.UIntT(max_width)
        return v.HwValue(ir.DoPrim(prim, (left.expr, right.expr)), result_type, v.BINDING_OP)
    if op == "##":
        width = None if left_width is None or right_width is None else left_width + right_width
        return v.HwValue(ir.DoPrim("cat", (left.expr, right.expr)), v.UIntT(width), v.BINDING_OP)
    if op == "<<":
        width = None if left_width is None or right_width is None else left_width + min((1 << right_width) - 1, 64)
        return v.HwValue(ir.DoPrim("dshl", (left.expr, right.expr)), numeric_type(width), v.BINDING_OP)
    if op == ">>":
        return v.HwValue(ir.DoPrim("dshr", (left.expr, right.expr)), numeric_type(left_width), v.BINDING_OP)
    raise ChiselError.at(
        f"value {op} is not a member of {left_type.chisel_name()}", location, code="A1"
    )


def unary_op(elab, op: str, operand: object, location: SourceLocation) -> object:
    if isinstance(operand, (v.HwType, v.Directed)):
        raise ChiselError.at(
            f"{v.describe_value(operand)} must be hardware, not a bare Chisel type. "
            "Perhaps you forgot to wrap it in Wire(_) or IO(_)?",
            location,
            code="B2",
        )
    if isinstance(operand, v.HwValue):
        width = _type_width(operand.tpe)
        if op == "~":
            if isinstance(operand.tpe, v.ClockT):
                raise ChiselError.at(
                    "value unary_~ is not a member of chisel3.Clock; convert with asUInt",
                    location,
                    code="B6",
                )
            result_type = v.BoolT() if isinstance(operand.tpe, v.BoolT) else v.UIntT(width)
            return v.HwValue(ir.DoPrim("not", (operand.expr,)), result_type, v.BINDING_OP)
        if op == "!":
            if not isinstance(operand.tpe, v.BoolT) and width not in (1, None):
                raise ChiselError.at(
                    f"type mismatch;\n found   : {operand.type_name()}\n required: chisel3.Bool\n"
                    "unary ! is only defined on Bool",
                    location,
                    code="B5",
                )
            return v.HwValue(ir.DoPrim("not", (operand.expr,)), v.BoolT(), v.BINDING_OP)
        if op == "-":
            if isinstance(operand.tpe, v.SIntT):
                new_width = None if width is None else width + 1
                return v.HwValue(ir.DoPrim("neg", (operand.expr,)), v.SIntT(new_width), v.BINDING_OP)
            zero = ir.UIntLiteral(0, width)
            return v.HwValue(ir.DoPrim("subw", (zero, operand.expr)), v.UIntT(width), v.BINDING_OP)
        raise ChiselError.at(f"unsupported unary operator {op}", location, code="PARSE")
    if op == "-":
        return -operand
    if op == "!":
        return not operand
    if op == "~":
        return ~operand
    raise ChiselError.at(f"unsupported unary operator {op}", location, code="PARSE")
