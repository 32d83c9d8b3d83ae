//! Interned constant pools for strings, types, prototypes, fields, and methods.
//!
//! An [`AdxFile`](crate::AdxFile) stores every symbolic reference once in a
//! pool and refers to it by a typed index, mirroring how DEX files store
//! `string_ids`/`type_ids`/`proto_ids`/`field_ids`/`method_ids`.

use std::collections::HashMap;
use std::fmt;

macro_rules! pool_index {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw pool slot of this index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "#{}", self.0)
            }
        }
    };
}

pool_index!(
    /// Index into the string pool.
    StringIdx
);
pool_index!(
    /// Index into the type pool.
    TypeIdx
);
pool_index!(
    /// Index into the prototype pool.
    ProtoIdx
);
pool_index!(
    /// Index into the field-reference pool.
    FieldIdx
);
pool_index!(
    /// Index into the method-reference pool.
    MethodIdx
);

/// A method prototype: return type plus parameter types.
///
/// Types are stored as [`TypeIdx`] values pointing at JVM-style descriptors
/// (`V`, `I`, `J`, `Z`, `Ljava/lang/String;`, `[B`, ...).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Proto {
    /// Return type descriptor.
    pub return_type: TypeIdx,
    /// Parameter type descriptors, in declaration order.
    pub params: Vec<TypeIdx>,
}

/// A method's parameter descriptors, split as its rendered signature
/// parses.
#[derive(Debug)]
pub enum ParamTypes<'a> {
    /// The prototype's type indices, which parse exactly as its rendered
    /// signature does.
    Pool(&'a [TypeIdx]),
    /// The rendered signature, parsed (a prototype whose types do not
    /// split cleanly).
    Parsed(Vec<String>),
}

impl ParamTypes<'_> {
    /// The number of parameters.
    pub fn len(&self) -> usize {
        match self {
            ParamTypes::Pool(types) => types.len(),
            ParamTypes::Parsed(descs) => descs.len(),
        }
    }

    /// Whether the method takes no parameters.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A symbolic reference to a field: declaring class, field type, and name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldRef {
    /// Declaring class type.
    pub class: TypeIdx,
    /// Field type.
    pub ty: TypeIdx,
    /// Field name.
    pub name: StringIdx,
}

/// A symbolic reference to a method: declaring class, prototype, and name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MethodRef {
    /// Declaring class type.
    pub class: TypeIdx,
    /// Method prototype.
    pub proto: ProtoIdx,
    /// Method name.
    pub name: StringIdx,
}

/// The five interned pools of an ADX file.
#[derive(Debug, Clone, Default)]
pub struct Pools {
    strings: Vec<String>,
    string_map: HashMap<String, StringIdx>,
    types: Vec<StringIdx>,
    type_map: HashMap<StringIdx, TypeIdx>,
    protos: Vec<Proto>,
    proto_map: HashMap<Proto, ProtoIdx>,
    fields: Vec<FieldRef>,
    field_map: HashMap<FieldRef, FieldIdx>,
    methods: Vec<MethodRef>,
    method_map: HashMap<MethodRef, MethodIdx>,
}

impl Pools {
    /// Creates empty pools.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a string, returning its pool index.
    pub fn string(&mut self, s: &str) -> StringIdx {
        if let Some(&idx) = self.string_map.get(s) {
            return idx;
        }
        let idx = StringIdx(self.strings.len() as u32);
        self.strings.push(s.to_owned());
        self.string_map.insert(s.to_owned(), idx);
        idx
    }

    /// Interns a type descriptor string, returning its type index.
    pub fn type_(&mut self, descriptor: &str) -> TypeIdx {
        let s = self.string(descriptor);
        if let Some(&idx) = self.type_map.get(&s) {
            return idx;
        }
        let idx = TypeIdx(self.types.len() as u32);
        self.types.push(s);
        self.type_map.insert(s, idx);
        idx
    }

    /// Interns a prototype, returning its pool index.
    pub fn proto(&mut self, return_type: TypeIdx, params: Vec<TypeIdx>) -> ProtoIdx {
        let proto = Proto {
            return_type,
            params,
        };
        if let Some(&idx) = self.proto_map.get(&proto) {
            return idx;
        }
        let idx = ProtoIdx(self.protos.len() as u32);
        self.protos.push(proto.clone());
        self.proto_map.insert(proto, idx);
        idx
    }

    /// Interns a field reference, returning its pool index.
    pub fn field(&mut self, class: TypeIdx, ty: TypeIdx, name: StringIdx) -> FieldIdx {
        let fr = FieldRef { class, ty, name };
        if let Some(&idx) = self.field_map.get(&fr) {
            return idx;
        }
        let idx = FieldIdx(self.fields.len() as u32);
        self.fields.push(fr);
        self.field_map.insert(fr, idx);
        idx
    }

    /// Interns a method reference, returning its pool index.
    pub fn method(&mut self, class: TypeIdx, proto: ProtoIdx, name: StringIdx) -> MethodIdx {
        let mr = MethodRef { class, proto, name };
        if let Some(&idx) = self.method_map.get(&mr) {
            return idx;
        }
        let idx = MethodIdx(self.methods.len() as u32);
        self.methods.push(mr);
        self.method_map.insert(mr, idx);
        idx
    }

    /// Looks up a string by index.
    pub fn get_string(&self, idx: StringIdx) -> Option<&str> {
        self.strings.get(idx.index()).map(String::as_str)
    }

    /// Looks up the descriptor string of a type.
    pub fn get_type(&self, idx: TypeIdx) -> Option<&str> {
        self.types
            .get(idx.index())
            .and_then(|&s| self.get_string(s))
    }

    /// Looks up a prototype.
    pub fn get_proto(&self, idx: ProtoIdx) -> Option<&Proto> {
        self.protos.get(idx.index())
    }

    /// Looks up a field reference.
    pub fn get_field(&self, idx: FieldIdx) -> Option<&FieldRef> {
        self.fields.get(idx.index())
    }

    /// Looks up a method reference.
    pub fn get_method(&self, idx: MethodIdx) -> Option<&MethodRef> {
        self.methods.get(idx.index())
    }

    /// Returns all interned strings in index order.
    pub fn strings(&self) -> &[String] {
        &self.strings
    }

    /// Returns all interned types (as string indices) in index order.
    pub fn types(&self) -> &[StringIdx] {
        &self.types
    }

    /// Returns all interned prototypes in index order.
    pub fn protos(&self) -> &[Proto] {
        &self.protos
    }

    /// Returns all interned field references in index order.
    pub fn fields(&self) -> &[FieldRef] {
        &self.fields
    }

    /// Returns all interned method references in index order.
    pub fn methods(&self) -> &[MethodRef] {
        &self.methods
    }

    /// Renders a method reference as `Lcls;.name(params)ret`, for diagnostics.
    pub fn display_method(&self, idx: MethodIdx) -> String {
        let Some(m) = self.get_method(idx) else {
            return format!("<bad method {idx}>");
        };
        let class = self.get_type(m.class).unwrap_or("<bad>");
        let name = self.get_string(m.name).unwrap_or("<bad>");
        let sig = self.display_proto(m.proto);
        format!("{class}.{name}{sig}")
    }

    /// The parameters of method `idx` as its rendered signature parses:
    /// straight from the prototype when its descriptors split cleanly
    /// ([`signature_splits_as`](crate::signature_splits_as)), else by
    /// parsing the rendering. `None` when the rendering does not parse.
    /// The lifter binds one register per parameter plus the receiver,
    /// and the verifier holds every frame to that count.
    pub fn method_params(&self, idx: MethodIdx) -> Option<ParamTypes<'_>> {
        let proto_idx = self.get_method(idx)?.proto;
        let proto = self.get_proto(proto_idx)?;
        let ret = self.get_type(proto.return_type)?;
        let params = proto
            .params
            .iter()
            .map(|&t| self.get_type(t).unwrap_or("<bad>"));
        if crate::signature_splits_as(params, ret) {
            return Some(ParamTypes::Pool(&proto.params));
        }
        crate::parse_signature(&self.display_proto(proto_idx))
            .ok()
            .map(|(descs, _)| ParamTypes::Parsed(descs))
    }

    /// Renders a prototype as `(params)ret`, for diagnostics.
    pub fn display_proto(&self, idx: ProtoIdx) -> String {
        let Some(p) = self.get_proto(idx) else {
            return format!("<bad proto {idx}>");
        };
        let mut out = String::from("(");
        for &t in &p.params {
            out.push_str(self.get_type(t).unwrap_or("<bad>"));
        }
        out.push(')');
        out.push_str(self.get_type(p.return_type).unwrap_or("<bad>"));
        out
    }

    /// Renders a field reference as `Lcls;.name:ty`, for diagnostics.
    pub fn display_field(&self, idx: FieldIdx) -> String {
        let Some(f) = self.get_field(idx) else {
            return format!("<bad field {idx}>");
        };
        let class = self.get_type(f.class).unwrap_or("<bad>");
        let name = self.get_string(f.name).unwrap_or("<bad>");
        let ty = self.get_type(f.ty).unwrap_or("<bad>");
        format!("{class}.{name}:{ty}")
    }

    /// Re-adds a string at a specific slot during deserialization.
    ///
    /// Strings must be pushed in index order; out-of-order pushes are a bug
    /// in the caller and corrupt the intern maps.
    pub(crate) fn push_string_raw(&mut self, s: String) {
        let idx = StringIdx(self.strings.len() as u32);
        self.string_map.insert(s.clone(), idx);
        self.strings.push(s);
    }

    pub(crate) fn push_type_raw(&mut self, s: StringIdx) {
        let idx = TypeIdx(self.types.len() as u32);
        self.type_map.insert(s, idx);
        self.types.push(s);
    }

    pub(crate) fn push_proto_raw(&mut self, p: Proto) {
        let idx = ProtoIdx(self.protos.len() as u32);
        self.proto_map.insert(p.clone(), idx);
        self.protos.push(p);
    }

    pub(crate) fn push_field_raw(&mut self, f: FieldRef) {
        let idx = FieldIdx(self.fields.len() as u32);
        self.field_map.insert(f, idx);
        self.fields.push(f);
    }

    pub(crate) fn push_method_raw(&mut self, m: MethodRef) {
        let idx = MethodIdx(self.methods.len() as u32);
        self.method_map.insert(m, idx);
        self.methods.push(m);
    }
}

/// Whether any method-pool entry of `file` satisfies `is_relevant`,
/// stopping at the first match: the prescan behind the analysis fast
/// path. Every API an app can call must appear as a [`MethodRef`] in the
/// pool, so no match means no call site to a relevant API can exist
/// anywhere in the bundle. A network app pays for a handful of pool
/// lookups and a clean one for one pass over the pool, never for a walk
/// of the instruction stream.
///
/// Dangling pool references (a `MethodRef` whose class or name index
/// resolves to nothing) cannot name a real API and never match; the
/// verifier reports them through its own channel.
pub fn pool_touches(file: &crate::AdxFile, is_relevant: &dyn Fn(&str, &str) -> bool) -> bool {
    file.pools.methods().iter().any(|m| {
        matches!(
            (file.pools.get_type(m.class), file.pools.get_string(m.name)),
            (Some(class), Some(name)) if is_relevant(class, name)
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_interning_is_idempotent() {
        let mut p = Pools::new();
        let a = p.string("hello");
        let b = p.string("hello");
        let c = p.string("world");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(p.get_string(a), Some("hello"));
        assert_eq!(p.get_string(c), Some("world"));
    }

    #[test]
    fn type_interning_shares_strings() {
        let mut p = Pools::new();
        let t1 = p.type_("Ljava/lang/String;");
        let t2 = p.type_("Ljava/lang/String;");
        assert_eq!(t1, t2);
        assert_eq!(p.get_type(t1), Some("Ljava/lang/String;"));
    }

    #[test]
    fn proto_interning_distinguishes_params() {
        let mut p = Pools::new();
        let v = p.type_("V");
        let i = p.type_("I");
        let p1 = p.proto(v, vec![i]);
        let p2 = p.proto(v, vec![i, i]);
        let p3 = p.proto(v, vec![i]);
        assert_eq!(p1, p3);
        assert_ne!(p1, p2);
    }

    #[test]
    fn method_display_is_readable() {
        let mut p = Pools::new();
        let cls = p.type_("Lcom/app/Main;");
        let v = p.type_("V");
        let proto = p.proto(v, vec![]);
        let name = p.string("onCreate");
        let m = p.method(cls, proto, name);
        assert_eq!(p.display_method(m), "Lcom/app/Main;.onCreate()V");
    }

    #[test]
    fn field_display_is_readable() {
        let mut p = Pools::new();
        let cls = p.type_("Lcom/app/Main;");
        let ty = p.type_("I");
        let name = p.string("count");
        let f = p.field(cls, ty, name);
        assert_eq!(p.display_field(f), "Lcom/app/Main;.count:I");
    }

    #[test]
    fn bad_indices_return_none() {
        let p = Pools::new();
        assert!(p.get_string(StringIdx(0)).is_none());
        assert!(p.get_type(TypeIdx(3)).is_none());
        assert!(p.get_proto(ProtoIdx(1)).is_none());
        assert!(p.get_field(FieldIdx(9)).is_none());
        assert!(p.get_method(MethodIdx(2)).is_none());
    }

    fn app_with_call(callee_class: &str, callee: &str) -> crate::AdxFile {
        let mut b = crate::builder::AdxBuilder::new();
        b.class("Lcom/t/Main;", |c| {
            c.super_class("Ljava/lang/Object;");
            c.method(
                "run",
                "()V",
                crate::AccessFlags::PUBLIC | crate::AccessFlags::STATIC,
                4,
                |m| {
                    m.invoke_static(callee_class, callee, "()V", &[]);
                    m.ret(None);
                },
            );
        });
        b.finish().expect("builds")
    }

    #[test]
    fn pool_touches_finds_a_referenced_api() {
        let file = app_with_call("Ljava/net/URL;", "openConnection");
        assert!(pool_touches(&file, &|class, name| {
            class == "Ljava/net/URL;" && name == "openConnection"
        }));
    }

    #[test]
    fn pool_touches_skips_an_unrelated_bundle() {
        let file = app_with_call("Lcom/t/Helper;", "work");
        assert!(!pool_touches(&file, &|class, _| class.starts_with("Ljava/net/")));
    }

    #[test]
    fn empty_file_touches_nothing() {
        assert!(!pool_touches(&crate::AdxFile::new(), &|_, _| true));
    }
}
