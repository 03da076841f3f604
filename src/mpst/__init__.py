"""Multiparty session protocols as first-class values.

Declare a protocol once with the global combinators, check it, and run every
role over automatically wired binary channels:

    from mpst import Role, Label, STRING, comm, end_, open_session

    s, c = Role("server"), Role("client")
    hello = Label("hello", STRING)
    g = comm(s, c, hello, end_())

    session = open_session(g)
    # hand session.endpoints[s] and session.endpoints[c] to two threads
"""

from .errors import (
    CvTypeError,
    ErrorKind,
    MpstError,
    ParseError,
    ProtocolTypeError,
    SessionRuntimeError,
    ShapeError,
)
from .protocol import (
    BOOL,
    INT,
    STRING,
    UNIT,
    ClosedAt,
    Choice,
    Comm,
    End,
    GlobalProtocol,
    Label,
    PayloadSort,
    Rec,
    Role,
    SessionSort,
    ValidationReport,
    Var,
    choice_at,
    closed_at,
    comm,
    end_,
    rec,
    roles_of,
    validate_shape,
    var_,
)
from .types import (
    Branch,
    EndT,
    LocalType,
    RecT,
    Select,
    VarT,
    format_local_type,
    local_type_to_json,
    merge,
    project,
    subtype,
    type_equiv,
    type_global,
    unfold_type,
)
from .chanvec import (
    ChannelName,
    ChannelTable,
    OutRec,
    WrappedInp,
    dump_channel_vectors,
    eval_global,
    fixv,
    typecheck_cv,
    unfold_cv,
)
from .transport import AsyncBuffered, Channel, FramedSocket, SyncRendezvous, Transport
from .runtime import (
    Endpoint,
    EventKind,
    LinearityCell,
    Session,
    SessionMonitor,
    TraceEvent,
    open_session,
)
from .scripts import (
    CloseStep,
    ReceiveStep,
    ReuseStep,
    RunReport,
    SendStep,
    compliant_scripts,
    run_scripted,
)
from .dsl import parse_protocol, parse_scenario, print_protocol

__version__ = "0.1.0"
